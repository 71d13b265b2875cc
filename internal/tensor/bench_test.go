package tensor

import (
	"fmt"
	"testing"

	"etalstm/internal/rng"
)

func benchPair(n int) (*Matrix, *Matrix) {
	r := rng.New(1)
	a := New(n, n)
	b := New(n, n)
	a.RandInit(r, 1)
	b.RandInit(r, 1)
	return a, b
}

func BenchmarkMatMul256(b *testing.B) {
	x, y := benchPair(256)
	dst := New(256, 256)
	b.SetBytes(int64(256 * 256 * 256 * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

func BenchmarkMatMulSerial256(b *testing.B) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	x, y := benchPair(256)
	dst := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

func BenchmarkMatMulTransB256(b *testing.B) {
	x, y := benchPair(256)
	dst := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransB(dst, x, y)
	}
}

func BenchmarkAddMatMulTransA256(b *testing.B) {
	x, y := benchPair(256)
	dst := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddMatMulTransA(dst, x, y)
	}
}

func BenchmarkSigmoid(b *testing.B) {
	r := rng.New(2)
	x := New(128, 1024)
	x.RandInit(r, 4)
	dst := New(128, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sigmoid(dst, x)
	}
}

func BenchmarkMulAdd(b *testing.B) {
	x, y := benchPair(512)
	dst := New(512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAdd(dst, x, y)
	}
}

// cellShapes are the (batch, in, out) kernel shapes of one LSTM cell
// gate: FW's batch×in · in×out, BP's batch×out · (in×out)ᵀ and the
// in×out weight-gradient accumulation over batch rows.
var cellShapes = [][3]int{{4, 256, 256}, {4, 64, 256}, {4, 32, 32}}

// benchCellShapes runs fn serially at every cell shape, reporting
// GFLOP/s (2 flops per multiply-add).
func benchCellShapes(b *testing.B, fn func(batch, in, out int) func()) {
	for _, s := range cellShapes {
		batch, in, out := s[0], s[1], s[2]
		b.Run(fmt.Sprintf("%dx%dx%d", batch, in, out), func(b *testing.B) {
			prev := SetWorkers(1)
			defer SetWorkers(prev)
			run := fn(batch, in, out)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			flops := 2 * float64(batch*in*out) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

func randMatrix(seed uint64, rows, cols int) *Matrix {
	m := New(rows, cols)
	m.RandInit(rng.New(seed), 1)
	return m
}

// BenchmarkCellMatMul is the FW-MatMul shape: x (batch×in) · W (in×out).
func BenchmarkCellMatMul(b *testing.B) {
	benchCellShapes(b, func(batch, in, out int) func() {
		x, w, dst := randMatrix(1, batch, in), randMatrix(2, in, out), New(batch, out)
		return func() { MatMul(dst, x, w) }
	})
}

// BenchmarkCellMatMulTransB is the propagated-gradient shape: δgate
// (batch×out) · W (in×out)ᵀ.
func BenchmarkCellMatMulTransB(b *testing.B) {
	benchCellShapes(b, func(batch, in, out int) func() {
		dg, w, dst := randMatrix(1, batch, out), randMatrix(2, in, out), New(batch, in)
		return func() { MatMulTransB(dst, dg, w) }
	})
}

// BenchmarkCellAddMatMulTransA is the weight-gradient shape: δW (in×out)
// += xᵀ (in×batch) · δgate (batch×out).
func BenchmarkCellAddMatMulTransA(b *testing.B) {
	benchCellShapes(b, func(batch, in, out int) func() {
		x, dg, dst := randMatrix(1, batch, in), randMatrix(2, batch, out), New(in, out)
		return func() { AddMatMulTransA(dst, x, dg) }
	})
}

// BenchmarkTranspose is the sparse backward cell's per-gate weight
// transpose at a recurrent-weight shape.
func BenchmarkTranspose(b *testing.B) {
	a, dst := randMatrix(1, 160, 96), New(96, 160)
	b.SetBytes(int64(8 * len(a.Data)))
	for i := 0; i < b.N; i++ {
		Transpose(dst, a)
	}
}
