// Package tensor implements the dense float32 linear algebra used by the
// LSTM training substrate: matrices, matrix multiplication (inner and
// outer product forms), element-wise kernels, and the activation
// functions of the LSTM cell together with their derivatives.
//
// The package is deliberately small and allocation-conscious: every
// routine that produces a matrix accepts a destination so hot training
// loops can reuse buffers. Matrices are dense row-major; there is no
// broadcasting — shapes must match exactly, and mismatches panic, since
// a shape error in training code is a programming bug, not a runtime
// condition to handle.
package tensor

import (
	"fmt"
	"math"

	"etalstm/internal/rng"
)

// Matrix is a dense row-major float32 matrix. The zero value is an empty
// matrix; use New or NewFromData for a sized one.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewFromData wraps data (not copied) as a rows×cols matrix.
func NewFromData(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.mustSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Size returns the number of elements.
func (m *Matrix) Size() int { return m.Rows * m.Cols }

// Bytes returns the storage size in bytes (4 bytes per float32).
func (m *Matrix) Bytes() int64 { return int64(m.Size()) * 4 }

func (m *Matrix) mustSameShape(o *Matrix, op string) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d",
			op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// String implements fmt.Stringer with a compact shape-first rendering.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// RandInit fills m with Uniform(-scale, scale) values — the standard
// LSTM initialization (scale typically 1/sqrt(hidden)).
func (m *Matrix) RandInit(r *rng.RNG, scale float32) {
	for i := range m.Data {
		m.Data[i] = r.Uniform(-scale, scale)
	}
}

// XavierInit fills m with the Glorot uniform distribution for fanIn/fanOut.
func (m *Matrix) XavierInit(r *rng.RNG, fanIn, fanOut int) {
	scale := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	m.RandInit(r, scale)
}

// MatMul computes dst = a · b (a: m×k, b: k×n, dst: m×n). dst may not
// alias a or b. It returns dst for chaining; if dst is nil a new matrix
// is allocated.
func MatMul(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", a.Cols, b.Rows))
	}
	if dst == nil {
		dst = New(a.Rows, b.Cols)
	} else if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst %dx%d want %dx%d",
			dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	dst.Zero()
	// ikj loop order: streams b rows four at a time (axpy4), keeps the
	// dst row hot, and gives every dst element its terms in ascending k
	// order — the rounding sequence of the plain ikj loop. Rows of a are
	// independent, so large products shard across workers. The serial
	// branch calls the span directly: building the closure only on the
	// parallel path keeps small products allocation-free.
	flops := int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	if serialRows(a.Rows, flops) {
		matmulSpan(dst, a, b, 0, a.Rows)
	} else {
		parallelRows(a.Rows, func(lo, hi int) { matmulSpan(dst, a, b, lo, hi) })
	}
	return dst
}

func matmulSpan(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		k := 0
		for ; k+4 <= a.Cols; k += 4 {
			axpy4(drow, arow[k], arow[k+1], arow[k+2], arow[k+3],
				b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3))
		}
		for ; k < a.Cols; k++ {
			axpy(drow, arow[k], b.Row(k))
		}
	}
}

// axpy adds av·x into dst element-wise. A zero av adds nothing, not
// even the NaN that 0·Inf would make: both MatMul and AddMatMulTransA
// skip exact-zero coefficients, so pruned or padded activations cost
// nothing and never poison the result.
//
// Every product is rounded before it is added (float32(av*xv)). Go
// may otherwise fuse the multiply and add into one FMA instruction on
// arm64 (and amd64 with GOAMD64=v3), which rounds once instead of twice
// and so changes result bits from one platform to the next.
func axpy(dst []float32, av float32, x []float32) {
	if av == 0 {
		return
	}
	x = x[:len(dst)]
	for j, xv := range x {
		dst[j] += float32(av * xv)
	}
}

// axpy4 adds a0·x0, a1·x1, a2·x2 and a3·x3 into dst, in that order for
// every element — the same per-element rounding sequence as four axpy
// calls, but each dst element is loaded and stored once instead of four
// times. When any coefficient is an exact zero it falls back to the four
// axpy calls, so the zero skip behaves identically on every input.
func axpy4(dst []float32, a0, a1, a2, a3 float32, x0, x1, x2, x3 []float32) {
	if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
		axpy(dst, a0, x0)
		axpy(dst, a1, x1)
		axpy(dst, a2, x2)
		axpy(dst, a3, x3)
		return
	}
	x0 = x0[:len(dst)]
	x1 = x1[:len(dst)]
	x2 = x2[:len(dst)]
	x3 = x3[:len(dst)]
	for j, d := range dst {
		d += float32(a0 * x0[j])
		d += float32(a1 * x1[j])
		d += float32(a2 * x2[j])
		d += float32(a3 * x3[j])
		dst[j] = d
	}
}

// MatMulTransA computes dst = aᵀ · b (a: k×m, b: k×n, dst: m×n) without
// materializing the transpose.
func MatMulTransA(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims %d vs %d", a.Rows, b.Rows))
	}
	if dst == nil {
		dst = New(a.Cols, b.Cols)
	} else if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA dst %dx%d want %dx%d",
			dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	dst.Zero()
	AddMatMulTransA(dst, a, b)
	return dst
}

// MatMulTransB computes dst = a · bᵀ (a: m×k, b: n×k, dst: m×n) without
// materializing the transpose.
func MatMulTransB(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d vs %d", a.Cols, b.Cols))
	}
	if dst == nil {
		dst = New(a.Rows, b.Rows)
	} else if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB dst %dx%d want %dx%d",
			dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	flops := int64(a.Rows) * int64(a.Cols) * int64(b.Rows)
	if serialRows(a.Rows, flops) {
		matmulTransBSpan(dst, a, b, 0, a.Rows)
	} else {
		parallelRows(a.Rows, func(lo, hi int) { matmulTransBSpan(dst, a, b, lo, hi) })
	}
	return dst
}

func matmulTransBSpan(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		// Four dot products per pass over arow. Each sum still runs k
		// in ascending order, so every output keeps its rounding
		// sequence; the pass just shares each arow load four ways.
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Row(j)[:len(arow)]
			b1 := b.Row(j + 1)[:len(arow)]
			b2 := b.Row(j + 2)[:len(arow)]
			b3 := b.Row(j + 3)[:len(arow)]
			var s0, s1, s2, s3 float32
			for k, av := range arow {
				s0 += float32(av * b0[k])
				s1 += float32(av * b1[k])
				s2 += float32(av * b2[k])
				s3 += float32(av * b3[k])
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Row(j)[:len(arow)]
			var sum float32
			for k, av := range arow {
				sum += float32(av * brow[k])
			}
			drow[j] = sum
		}
	}
}

// AddMatMulTransA computes dst += aᵀ · b. This is the outer-product
// weight-gradient accumulation of LSTM BP (paper Eq. 3): when a holds
// batch×m activations and b holds batch×n gate gradients, dst
// accumulates the m×n weight gradient.
func AddMatMulTransA(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: AddMatMulTransA inner dims %d vs %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: AddMatMulTransA dst %dx%d want %dx%d",
			dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	// Shard over dst rows (columns of a): each worker owns a disjoint
	// slice of the accumulator, so the += stays race-free.
	flops := int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	if serialRows(a.Cols, flops) {
		addMatMulTransASpan(dst, a, b, 0, a.Cols)
	} else {
		parallelRows(a.Cols, func(lo, hi int) { addMatMulTransASpan(dst, a, b, lo, hi) })
	}
}

func addMatMulTransASpan(dst, a, b *Matrix, lo, hi int) {
	// i-outer: each dst row is swept once per call, taking its terms in
	// ascending k (batch row) order, four rows of b at a time.
	m := a.Cols
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		k := 0
		for ; k+4 <= a.Rows; k += 4 {
			axpy4(drow, a.Data[k*m+i], a.Data[(k+1)*m+i], a.Data[(k+2)*m+i], a.Data[(k+3)*m+i],
				b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3))
		}
		for ; k < a.Rows; k++ {
			axpy(drow, a.Data[k*m+i], b.Row(k))
		}
	}
}

// Transpose returns aᵀ as a new matrix (or into dst when non-nil).
func Transpose(dst, a *Matrix) *Matrix {
	if dst == nil {
		dst = New(a.Cols, a.Rows)
	} else if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic("tensor: Transpose dst shape")
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			dst.Set(j, i, a.At(i, j))
		}
	}
	return dst
}

// Add computes dst = a + b element-wise.
func Add(dst, a, b *Matrix) *Matrix {
	a.mustSameShape(b, "Add")
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	dst.mustSameShape(a, "Add dst")
	for i, av := range a.Data {
		dst.Data[i] = av + b.Data[i]
	}
	return dst
}

// AddInPlace computes dst += a element-wise.
func AddInPlace(dst, a *Matrix) {
	dst.mustSameShape(a, "AddInPlace")
	for i, av := range a.Data {
		dst.Data[i] += av
	}
}

// Sub computes dst = a - b element-wise.
func Sub(dst, a, b *Matrix) *Matrix {
	a.mustSameShape(b, "Sub")
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	dst.mustSameShape(a, "Sub dst")
	for i, av := range a.Data {
		dst.Data[i] = av - b.Data[i]
	}
	return dst
}

// Mul computes dst = a ⊙ b (Hadamard product).
func Mul(dst, a, b *Matrix) *Matrix {
	a.mustSameShape(b, "Mul")
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	dst.mustSameShape(a, "Mul dst")
	for i, av := range a.Data {
		dst.Data[i] = av * b.Data[i]
	}
	return dst
}

// MulAdd computes dst += a ⊙ b (fused multiply-accumulate form used
// throughout BP-EW).
func MulAdd(dst, a, b *Matrix) {
	dst.mustSameShape(a, "MulAdd")
	a.mustSameShape(b, "MulAdd")
	for i, av := range a.Data {
		dst.Data[i] += float32(av * b.Data[i])
	}
}

// Scale computes dst = a * s element-wise.
func Scale(dst, a *Matrix, s float32) *Matrix {
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	dst.mustSameShape(a, "Scale dst")
	for i, av := range a.Data {
		dst.Data[i] = av * s
	}
	return dst
}

// AddRowVector computes dst = a + rowvec broadcast over rows; rowvec
// must have length a.Cols. This applies a bias to every batch row.
func AddRowVector(dst, a *Matrix, rowvec []float32) *Matrix {
	if len(rowvec) != a.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector len %d != cols %d", len(rowvec), a.Cols))
	}
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	dst.mustSameShape(a, "AddRowVector dst")
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j, av := range arow {
			drow[j] = av + rowvec[j]
		}
	}
	return dst
}

// SumRows accumulates each column of a into vec (len a.Cols): the bias
// gradient reduction.
func SumRows(vec []float32, a *Matrix) {
	if len(vec) != a.Cols {
		panic("tensor: SumRows length mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		for j, av := range arow {
			vec[j] += av
		}
	}
}

// Sigmoid computes dst = σ(a) element-wise.
func Sigmoid(dst, a *Matrix) *Matrix {
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	dst.mustSameShape(a, "Sigmoid dst")
	for i, av := range a.Data {
		dst.Data[i] = sigmoid32(av)
	}
	return dst
}

// Tanh computes dst = tanh(a) element-wise.
func Tanh(dst, a *Matrix) *Matrix {
	if dst == nil {
		dst = New(a.Rows, a.Cols)
	}
	dst.mustSameShape(a, "Tanh dst")
	for i, av := range a.Data {
		dst.Data[i] = tanh32(av)
	}
	return dst
}

func sigmoid32(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

func tanh32(x float32) float32 {
	return float32(math.Tanh(float64(x)))
}

// Sigmoid32 exposes the scalar sigmoid for callers that operate on raw
// values (the hardware activation LUT validates against it).
func Sigmoid32(x float32) float32 { return sigmoid32(x) }

// Tanh32 exposes the scalar tanh.
func Tanh32(x float32) float32 { return tanh32(x) }

// AbsSum returns Σ|a_ij| — the "magnitude" statistic the paper uses for
// per-cell weight gradients (Fig. 8).
func (m *Matrix) AbsSum() float64 {
	var s float64
	for _, v := range m.Data {
		s += math.Abs(float64(v))
	}
	return s
}

// MaxAbs returns max |a_ij|.
func (m *Matrix) MaxAbs() float32 {
	var mx float32
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	return mx
}

// FracBelow returns the fraction of elements with |v| < threshold —
// the sparsity statistic behind Fig. 6 and the compression module.
func (m *Matrix) FracBelow(threshold float32) float64 {
	if len(m.Data) == 0 {
		return 0
	}
	n := 0
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v < threshold {
			n++
		}
	}
	return float64(n) / float64(len(m.Data))
}

// Norm2 returns the Frobenius norm of m.
func (m *Matrix) Norm2() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(float64(v) * float64(v))
	}
	return math.Sqrt(s)
}

// Equal reports whether m and o have identical shape and elements
// within tol.
func (m *Matrix) Equal(o *Matrix, tol float32) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		d := v - o.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}
