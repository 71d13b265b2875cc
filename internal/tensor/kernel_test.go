package tensor

import (
	"fmt"
	"math"
	"testing"

	"etalstm/internal/rng"
)

// The reference loops below are the plain, unblocked kernels: ikj for
// MatMul, one dot product per output for MatMulTransB, and k-outer for
// AddMatMulTransA, each skipping exact-zero a values where the library
// kernel does. The blocked kernels must reproduce them bit for bit.

func refMatMul(dst, a, b *Matrix) {
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				drow[j] += float32(av * bv)
			}
		}
	}
}

func refMatMulTransB(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var sum float32
			for k, av := range arow {
				sum += float32(av * brow[k])
			}
			drow[j] = sum
		}
	}
}

func refAddMatMulTransA(dst, a, b *Matrix) {
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := 0; i < a.Cols; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += float32(av * bv)
			}
		}
	}
}

// kernelDims covers every remainder mod 4 plus the cell-shape sizes.
var kernelDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 64, 256}

// specialOperand fills an m×n matrix with random values, then plants
// exact +0 and −0 entries (about one in five) and, when poison is set,
// ±Inf and NaN at a few positions. Zeros sometimes fill whole rows, so
// both the all-zero and the mixed 4-groups of the blocked loops run.
func specialOperand(r *rng.RNG, m, n int, poison bool) *Matrix {
	x := New(m, n)
	x.RandInit(r, 2)
	negZero := float32(math.Copysign(0, -1))
	for i := range x.Data {
		switch r.Intn(10) {
		case 0:
			x.Data[i] = 0
		case 1:
			x.Data[i] = negZero
		}
	}
	if m > 2 && r.Intn(2) == 0 {
		for j := range x.Row(1) {
			x.Data[n+j] = 0
		}
	}
	if poison {
		specials := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
		for p := 0; p < 3; p++ {
			x.Data[r.Intn(len(x.Data))] = specials[p]
		}
	}
	return x
}

// sameBits reports the first index where got and want differ bitwise,
// or -1. Every NaN matches every other NaN: which NaN an add returns
// depends on the operand order the compiler picks for the instruction,
// a choice Go leaves open and no numeric contract here depends on.
func sameBits(got, want []float32) int {
	for i := range want {
		g, w := got[i], want[i]
		if g != g && w != w {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			return i
		}
	}
	return -1
}

// kernelDimSets yields (m, k, n) triples covering every kernelDims value
// on each axis without running the full cube at 256³.
func kernelDimSets() [][3]int {
	var out [][3]int
	for _, m := range kernelDims {
		for _, k := range kernelDims {
			for _, n := range kernelDims {
				big := 0
				for _, d := range []int{m, k, n} {
					if d >= 64 {
						big++
					}
				}
				if big > 1 {
					continue
				}
				out = append(out, [3]int{m, k, n})
			}
		}
	}
	return append(out, [3]int{4, 256, 256}, [3]int{4, 64, 256}, [3]int{256, 256, 256})
}

func TestBlockedKernelsMatchReferenceBitwise(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := SetWorkers(workers)
			defer SetWorkers(prev)
			r := rng.New(5)
			for _, d := range kernelDimSets() {
				m, k, n := d[0], d[1], d[2]
				// b carries the Inf/NaN: where a's coefficient is zero the
				// skip must keep it out, elsewhere it must propagate.
				a := specialOperand(r, m, k, false)
				b := specialOperand(r, k, n, true)
				got, want := New(m, n), New(m, n)
				MatMul(got, a, b)
				refMatMul(want, a, b)
				if i := sameBits(got.Data, want.Data); i >= 0 {
					t.Fatalf("MatMul %dx%dx%d: element %d = %v, want %v", m, k, n, i, got.Data[i], want.Data[i])
				}

				bt := specialOperand(r, n, k, true)
				got.Fill(7) // every element must be overwritten
				MatMulTransB(got, a, bt)
				refMatMulTransB(want, a, bt)
				if i := sameBits(got.Data, want.Data); i >= 0 {
					t.Fatalf("MatMulTransB %dx%dx%d: element %d = %v, want %v", m, k, n, i, got.Data[i], want.Data[i])
				}

				// AddMatMulTransA: a is k×m (batch×rows), b is k×n; dst
				// starts from a shared non-zero accumulator with −0 in it.
				at := specialOperand(r, k, m, false)
				acc := specialOperand(r, m, n, false)
				got.CopyFrom(acc)
				want.CopyFrom(acc)
				AddMatMulTransA(got, at, b)
				refAddMatMulTransA(want, at, b)
				if i := sameBits(got.Data, want.Data); i >= 0 {
					t.Fatalf("AddMatMulTransA %dx%dx%d: element %d = %v, want %v", m, k, n, i, got.Data[i], want.Data[i])
				}
			}
		})
	}
}

// TestZeroCoefficientSkipsNonFinite pins the skip semantics directly: an
// exact-zero a value inside an otherwise non-zero 4-group keeps b's
// Inf and NaN out of the product, as the plain ikj loop always did.
func TestZeroCoefficientSkipsNonFinite(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	for _, z := range []float32{0, negZero} {
		a := NewFromData(1, 4, []float32{1, z, 2, 3})
		b := NewFromData(4, 2, []float32{1, 1, inf, nan, 1, 1, 1, 1})
		got := MatMul(nil, a, b)
		if got.Data[0] != 6 || got.Data[1] != 6 {
			t.Fatalf("MatMul with zero coefficient %v: got %v, want [6 6]", z, got.Data)
		}
		acc := New(1, 2)
		AddMatMulTransA(acc, NewFromData(4, 1, []float32{1, z, 2, 3}), b)
		if acc.Data[0] != 6 || acc.Data[1] != 6 {
			t.Fatalf("AddMatMulTransA with zero coefficient %v: got %v, want [6 6]", z, acc.Data)
		}
	}
}
