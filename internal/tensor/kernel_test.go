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

// edgeLengths covers the empty slice, every length up to two quads plus
// one, and 4k±1 around the kernels' pair and quad loops.
var edgeLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 17, 31, 33, 63, 65}

// guard is the sentinel around every operand of the edge tests: a
// large finite value no kernel result carries, so a stray write outside
// an operand shows, and a stray read moves a checked result. (A NaN
// would survive being added to.)
var guard = math.Float32frombits(0x5eadbeef)

// guarded returns an n-element slice starting off elements into a
// buffer filled with guard, plus a check that the guard around it is
// intact. The buffer is 16-byte aligned as Go allocates it, so offsets
// 1-3 make every vector access unaligned.
func guarded(t *testing.T, r *rng.RNG, n, off int) ([]float32, func(string)) {
	buf := make([]float32, off+n+8)
	for i := range buf {
		buf[i] = guard
	}
	s := buf[off : off+n]
	for i := range s {
		s[i] = r.Uniform(-2, 2)
	}
	return s, func(label string) {
		t.Helper()
		for i, v := range buf {
			if (i < off || i >= off+n) && math.Float32bits(v) != math.Float32bits(guard) {
				t.Fatalf("%s: element %d outside the operand changed to %v", label, i-off, v)
			}
		}
	}
}

// guardedMatrix is guarded for a rows×cols matrix.
func guardedMatrix(t *testing.T, r *rng.RNG, rows, cols, off int) (*Matrix, func(string)) {
	s, check := guarded(t, r, rows*cols, off)
	return NewFromData(rows, cols, s), check
}

func TestMatrixKernelsUnalignedEdges(t *testing.T) {
	r := rng.New(19)
	dims := []int{1, 3, 4, 5, 8, 9}
	for off := 1; off <= 3; off++ {
		for _, m := range dims {
			for _, k := range edgeLengths[1:] {
				for _, n := range dims {
					label := fmt.Sprintf("off=%d %dx%dx%d", off, m, k, n)
					a, checkA := guardedMatrix(t, r, m, k, off)
					b, checkB := guardedMatrix(t, r, k, n, (off+1)%4)
					got, checkG := guardedMatrix(t, r, m, n, (off+2)%4)
					want := New(m, n)
					MatMul(got, a, b)
					refMatMul(want, a, b)
					if i := sameBits(got.Data, want.Data); i >= 0 {
						t.Fatalf("MatMul %s: element %d = %v, want %v", label, i, got.Data[i], want.Data[i])
					}

					bt, checkBT := guardedMatrix(t, r, n, k, (off+3)%4)
					MatMulTransB(got, a, bt)
					refMatMulTransB(want, a, bt)
					if i := sameBits(got.Data, want.Data); i >= 0 {
						t.Fatalf("MatMulTransB %s: element %d = %v, want %v", label, i, got.Data[i], want.Data[i])
					}

					at, checkAT := guardedMatrix(t, r, k, m, off)
					copy(want.Data, got.Data)
					AddMatMulTransA(got, at, b)
					refAddMatMulTransA(want, at, b)
					if i := sameBits(got.Data, want.Data); i >= 0 {
						t.Fatalf("AddMatMulTransA %s: element %d = %v, want %v", label, i, got.Data[i], want.Data[i])
					}
					for name, check := range map[string]func(string){"a": checkA, "b": checkB, "dst": checkG, "bt": checkBT, "at": checkAT} {
						check(name + " " + label)
					}
				}
			}
		}
	}
}

// refAddRows is the plain loop addRows must match: each dst element
// takes coef[n]·m[rows[n]][j], n ascending.
func refAddRows(dst []float32, m *Matrix, rows []int32, coef []float32) {
	for j := range dst {
		s := dst[j]
		for n, row := range rows {
			s += float32(coef[n] * m.At(int(row), j))
		}
		dst[j] = s
	}
}

func TestAddRowsUnalignedEdges(t *testing.T) {
	r := rng.New(23)
	for off := 1; off <= 3; off++ {
		for _, width := range edgeLengths {
			for _, count := range []int{0, 1, 3, 4, 5, 8, 9} {
				label := fmt.Sprintf("off=%d width=%d rows=%d", off, width, count)
				m, checkM := guardedMatrix(t, r, 7, width, off)
				rows := make([]int32, count)
				coef := make([]float32, count)
				for n := range rows {
					rows[n] = int32(r.Intn(7))
					coef[n] = r.Uniform(-2, 2)
				}
				if count > 2 && width > 0 {
					coef[1] = 0 // no zero skip: 0·Inf must still make NaN
					m.Set(int(rows[1]), 0, float32(math.Inf(1)))
				}
				got, checkG := guarded(t, r, width, (off+1)%4)
				want := append([]float32(nil), got...)
				addRows(got, m, rows, coef)
				refAddRows(want, m, rows, coef)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("addRows %s: element %d = %v, want %v", label, i, got[i], want[i])
				}
				CombineRows(got, m, rows, coef)
				clear(want)
				refAddRows(want, m, rows, coef)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("CombineRows %s: element %d = %v, want %v", label, i, got[i], want[i])
				}
				checkM("m " + label)
				checkG("dst " + label)
			}
		}
	}
}

// refAccumulateColumns is the plain loop AccumulateColumns must match.
func refAccumulateColumns(dst *Matrix, i, w int, a *Matrix, colN, colK []int32, colV []float32, stride int) {
	for kk, cnt := range colN {
		for q := 0; q < w; q++ {
			s := dst.At(i+q, kk)
			for e := kk * stride; e < kk*stride+int(cnt); e++ {
				s += float32(a.At(int(colK[e]), i+q) * colV[e])
			}
			dst.Set(i+q, kk, s)
		}
	}
}

func TestAccumulateColumnsUnalignedEdges(t *testing.T) {
	r := rng.New(29)
	for off := 1; off <= 3; off++ {
		for _, w := range []int{8, 32} {
			for _, cols := range edgeLengths {
				for _, aw := range []int{w, w + 1, w + 3, 2*w + 1} {
					const batch = 9
					label := fmt.Sprintf("off=%d w=%d cols=%d a=%dx%d", off, w, cols, batch, aw)
					a, checkA := guardedMatrix(t, r, batch, aw, off)
					colN := make([]int32, cols)
					colK := make([]int32, cols*batch)
					colV := make([]float32, cols*batch)
					for kk := range colN {
						colN[kk] = int32(r.Intn(batch + 1))
						for e := 0; e < int(colN[kk]); e++ {
							colK[kk*batch+e] = int32(r.Intn(batch))
							colV[kk*batch+e] = r.Uniform(-2, 2)
						}
					}
					i := aw - w
					got, checkG := guardedMatrix(t, r, aw, cols, (off+1)%4)
					want := got.Clone()
					AccumulateColumns(got, i, w, a, colN, colK, colV, batch)
					refAccumulateColumns(want, i, w, a, colN, colK, colV, batch)
					if j := sameBits(got.Data, want.Data); j >= 0 {
						t.Fatalf("AccumulateColumns %s: element %d = %v, want %v", label, j, got.Data[j], want.Data[j])
					}
					checkA("a " + label)
					checkG("dst " + label)
				}
			}
		}
	}
}

// mustPanic runs fn, requires a panic, and then requires the operand
// snapshot to be unchanged: the Go wrapper must refuse the call before
// any kernel writes.
func mustPanic(t *testing.T, label string, dst []float32, fn func()) {
	t.Helper()
	before := append([]float32(nil), dst...)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", label)
			}
		}()
		fn()
	}()
	if i := sameBits(dst, before); i >= 0 {
		t.Fatalf("%s: dst element %d written before the panic", label, i)
	}
}

func TestKernelOperandMismatchPanics(t *testing.T) {
	r := rng.New(31)
	dst := make([]float32, 9)
	m := New(4, 9)
	m.RandInit(r, 1)
	mustPanic(t, "addRows dst width", dst[:8], func() { addRows(dst[:8], m, []int32{0}, []float32{1}) })
	mustPanic(t, "addRows short coef", dst, func() { addRows(dst, m, []int32{0, 1}, []float32{1}) })
	for _, bad := range []int32{4, -1} {
		rows := []int32{0, 1, 2, bad, 3}
		mustPanic(t, fmt.Sprintf("addRows row %d", bad), dst, func() { addRows(dst, m, rows, []float32{1, 1, 1, 1, 1}) })
		mustPanic(t, fmt.Sprintf("addRows single row %d", bad), dst, func() { addRows(dst, m, rows[3:4], []float32{1}) })
	}
	mustPanic(t, "CombineRows dst width", dst[:8], func() { CombineRows(dst[:8], m, []int32{0}, []float32{1}) })

	a := New(3, 16)
	a.Fill(1)
	d := New(16, 2)
	colN := []int32{1, 1}
	for _, tc := range []struct {
		label string
		fn    func()
	}{
		{"width", func() { AccumulateColumns(d, 0, 12, a, colN, []int32{0, 0}, []float32{1, 1}, 1) }},
		{"rows past dst", func() { AccumulateColumns(d, 9, 8, a, colN, []int32{0, 0}, []float32{1, 1}, 1) }},
		{"column count", func() { AccumulateColumns(d, 0, 8, a, colN[:1], []int32{0}, []float32{1}, 1) }},
		{"short lists", func() { AccumulateColumns(d, 0, 8, a, colN, []int32{0}, []float32{1}, 1) }},
		{"count over stride", func() { AccumulateColumns(d, 0, 8, a, []int32{2, 0}, []int32{0, 0}, []float32{1, 1}, 1) }},
		{"row index", func() { AccumulateColumns(d, 0, 8, a, colN, []int32{3, 0}, []float32{1, 1}, 1) }},
		{"negative row", func() { AccumulateColumns(d, 0, 8, a, colN, []int32{-1, 0}, []float32{1, 1}, 1) }},
	} {
		mustPanic(t, "AccumulateColumns "+tc.label, d.Data, tc.fn)
	}
}

// TestKernelsStayInsideOperands calls the inner loops directly with
// lengths the Go callers never pass (not multiples of 4): whatever part
// of the operands a build's kernel covers, it must not read or write
// past them.
func TestKernelsStayInsideOperands(t *testing.T) {
	r := rng.New(37)
	for off := 1; off <= 3; off++ {
		for _, n := range edgeLengths {
			label := fmt.Sprintf("off=%d n=%d", off, n)
			// addRowsKernel: n columns of a 5-row m with ld = n+1.
			dst, checkD := guarded(t, r, n, off)
			m, checkM := guarded(t, r, 5*(n+1), (off+1)%4)
			addRowsKernel(dst, m, n+1, []int32{0, 4, 2, 1, 3}, []float32{1, 2, 3, 4, 5})
			checkD("addRows dst " + label)
			checkM("addRows m " + label)

			// transB4Kernel: four dst rows of ld = n+1, n columns, and
			// a chunk of kn = n k values.
			ld := n + 1
			blk, checkB := guarded(t, r, 3*ld+n, off)
			chunk, checkC := guarded(t, r, 4*n, (off+2)%4)
			bmat, checkM := guarded(t, r, max(0, (n-1)*(n+2)+n), (off+3)%4)
			transB4Kernel(blk, ld, chunk, bmat, n+2)
			checkB("transB dst " + label)
			checkC("transB chunk " + label)
			checkM("transB b " + label)

			// transpose4Kernel: a strip of four src rows of lds = n+2
			// into n dst rows of ldd = 6.
			src, checkS := guarded(t, r, 3*(n+2)+n, off)
			tdst, checkT := guarded(t, r, max(0, (n-1)*6+4), (off+1)%4)
			transpose4Kernel(tdst, 6, src, n+2)
			checkS("transpose src " + label)
			checkT("transpose dst " + label)
		}
	}
}

// TestTransposeBlocked checks the tiled Transpose against the
// element-at-a-time loop: single rows and columns, sizes around the
// 4-row strips and the 64×64 tiles, operands unaligned in guarded
// buffers, and a dst holding garbage that must be fully overwritten.
func TestTransposeBlocked(t *testing.T) {
	r := rng.New(41)
	shapes := [][2]int{{1, 1}, {1, 9}, {1, 130}, {9, 1}, {130, 1}, {3, 5}, {4, 4}, {5, 3},
		{7, 129}, {63, 65}, {64, 64}, {65, 130}, {130, 65}, {160, 96}, {96, 160}}
	for off := 0; off <= 3; off++ {
		for _, sh := range shapes {
			m, n := sh[0], sh[1]
			label := fmt.Sprintf("off=%d %dx%d", off, m, n)
			a, checkA := guardedMatrix(t, r, m, n, off)
			got, checkG := guardedMatrix(t, r, n, m, (off+1)%4)
			Transpose(got, a)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					if g, w := got.At(j, i), a.At(i, j); math.Float32bits(g) != math.Float32bits(w) {
						t.Fatalf("Transpose %s: (%d,%d) = %v, want %v", label, j, i, g, w)
					}
				}
			}
			checkA("a " + label)
			checkG("dst " + label)
		}
	}
	if got := Transpose(nil, NewFromData(2, 3, []float32{1, 2, 3, 4, 5, 6})); !got.Equal(NewFromData(3, 2, []float32{1, 4, 2, 5, 3, 6}), 0) {
		t.Fatalf("Transpose(nil, 2x3) = %v", got.Data)
	}
}
