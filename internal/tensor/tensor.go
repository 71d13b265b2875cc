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
	// ikj loop order: each dst row takes the b rows of its non-zero a
	// coefficients, k ascending (addRows), so every dst element gets its
	// terms in the rounding sequence of the plain ikj loop. Rows of a are
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

// rowChunk is how many coefficients one addRows call takes: a row of
// a is compacted in chunks of this many k values into stack arrays.
const rowChunk = 128

func matmulSpan(dst, a, b *Matrix, lo, hi int) {
	var rows [rowChunk]int32
	var coef [rowChunk]float32
	for i := lo; i < hi; i++ {
		arow, drow := a.Row(i), dst.Row(i)
		for k0 := 0; k0 < len(arow); k0 += rowChunk {
			n := 0
			for k, v := range arow[k0:min(k0+rowChunk, len(arow))] {
				if v != 0 {
					rows[n], coef[n] = int32(k0+k), v
					n++
				}
			}
			addRows(drow, b, rows[:n], coef[:n])
		}
	}
}

// addRows adds Σₙ coef[n]·m.Row(rows[n]) into dst, n ascending, with no
// zero skip: every dst element takes its terms one at a time in list
// order, each product rounded before it is added. The kernel covers
// the whole quads of dst, four rows per pass; the last len(dst) mod 4
// elements run here.
//
// The exact-zero skip of MatMul and AddMatMulTransA is the callers'
// compaction: a zero coefficient never enters the list, so it adds
// nothing, not even the NaN that 0·Inf would make, and pruned or
// padded activations cost nothing.
//
// Every product is rounded before it is added (float32(a*b)). Go may
// otherwise fuse the multiply and add into one FMA instruction on
// arm64 (and amd64 with GOAMD64=v3), which rounds once instead of twice
// and so changes result bits from one platform to the next.
func addRows(dst []float32, m *Matrix, rows []int32, coef []float32) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: addRows dst length %d != cols %d", len(dst), m.Cols))
	}
	coef = coef[:len(rows)]
	if len(rows) == 0 {
		return
	}
	ld := m.Cols
	n4 := len(dst) &^ 3
	if !addRowsKernel(dst[:n4], m.Data, ld, rows, coef) {
		panic("tensor: addRows row index out of range")
	}
	for j := n4; j < len(dst); j++ {
		s := dst[j]
		for n, r := range rows {
			s += float32(coef[n] * m.Data[int(r)*ld+j])
		}
		dst[j] = s
	}
}

// CombineRows sets dst to Σₙ coef[n]·m.Row(rows[n]), n ascending: every
// dst element starts from +0 and takes its terms in that order. No
// coefficient is skipped, so each element equals the plain dot product
// of coef with column j of m at the listed rows. The sparse backward
// cell uses it to gather a gate's propagated gradient over a
// transposed weight matrix.
func CombineRows(dst []float32, m *Matrix, rows []int32, coef []float32) {
	clear(dst)
	addRows(dst, m, rows, coef)
}

// AccumulateColumns adds aᵀ·G to rows i..i+w−1 of dst, w being 8 or
// 32, where G is given by column lists: column kk of G holds colN[kk]
// entries at positions kk·stride onwards of colK (row indices of a)
// and colV (values). Element (i+q, kk) of dst is loaded once, takes
// a[colK[e]][i+q]·colV[e] for its column's entries e in list order,
// with no coefficient skipped, and is stored once; one vector lane
// holds one row. The sparse backward cell uses it for the
// weight-gradient scatter, where G is the pruned δgate.
func AccumulateColumns(dst *Matrix, i, w int, a *Matrix, colN, colK []int32, colV []float32, stride int) {
	if w != 8 && w != 32 {
		panic(fmt.Sprintf("tensor: AccumulateColumns width %d, want 8 or 32", w))
	}
	if i < 0 || i+w > dst.Rows || i+w > a.Cols || len(colN) != dst.Cols || stride < 0 {
		panic(fmt.Sprintf("tensor: AccumulateColumns rows %d..%d, %d columns, stride %d do not fit dst %dx%d, a %dx%d",
			i, i+w, len(colN), stride, dst.Rows, dst.Cols, a.Rows, a.Cols))
	}
	if len(colN) == 0 {
		return
	}
	ld := dst.Cols
	d := dst.Data[i*ld : (i+w-1)*ld+ld]
	n := len(colN) * stride
	kernel := columns8Kernel
	if w == 32 {
		kernel = columns32Kernel
	}
	if !kernel(d, ld, a.Data[i:], a.Cols, colN, colK[:n], colV[:n], stride) {
		panic("tensor: AccumulateColumns column count or row index out of range")
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

// transBChunk is the k extent of one packed chunk of four a rows:
// 4 KiB of stack, small enough to share L1 with the b rows it meets.
const transBChunk = 256

// matmulTransBSpan computes rows lo..hi of dst four at a time: the four
// a rows are packed k-major into a chunk, so the kernel's lane r is row
// r's dot product, k ascending. Partial sums carry through dst from one
// chunk to the next, which leaves every sum's rounding sequence that of
// the plain dot product starting from +0. The k and column remainders
// of each block, and the rows left over, run here in Go.
func matmulTransBSpan(dst, a, b *Matrix, lo, hi int) {
	kdim, n, ld := a.Cols, b.Rows, dst.Cols
	k4, n4 := kdim&^3, n&^3
	var chunk [4 * transBChunk]float32
	i := lo
	for ; i+4 <= hi && n4 > 0; i += 4 {
		blk := dst.Data[i*ld : (i+3)*ld+n4]
		for r := 0; r < 4; r++ {
			clear(blk[r*ld : r*ld+n4])
		}
		for k0 := 0; k0 < k4; k0 += transBChunk {
			kn := min(transBChunk, k4-k0)
			c := chunk[:4*kn]
			for r := 0; r < 4; r++ {
				for k, v := range a.Row(i + r)[k0 : k0+kn] {
					c[4*k+r] = v
				}
			}
			transB4Kernel(blk, ld, c, b.Data[k0:(n4-1)*b.Cols+k0+kn], b.Cols)
		}
		for r := 0; r < 4; r++ {
			arow, drow := a.Row(i+r), dst.Row(i+r)
			if k4 < kdim {
				for j := 0; j < n4; j++ {
					brow := b.Row(j)[:kdim]
					s := drow[j]
					for k := k4; k < kdim; k++ {
						s += float32(arow[k] * brow[k])
					}
					drow[j] = s
				}
			}
			for j := n4; j < n; j++ {
				drow[j] = dot(arow, b.Row(j))
			}
		}
	}
	for ; i < hi; i++ {
		arow, drow := a.Row(i), dst.Row(i)
		for j := range drow {
			drow[j] = dot(arow, b.Row(j))
		}
	}
}

// dot returns Σₖ x[k]·y[k], k ascending from +0.
func dot(x, y []float32) float32 {
	y = y[:len(x)]
	var sum float32
	for k, xv := range x {
		sum += float32(xv * y[k])
	}
	return sum
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
	// i-outer: each dst row is swept once per call, taking the b rows of
	// its column of a's non-zero values, k (batch row) ascending.
	var rows [rowChunk]int32
	var coef [rowChunk]float32
	m := a.Cols
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		for k0 := 0; k0 < a.Rows; k0 += rowChunk {
			n := 0
			for k := k0; k < min(k0+rowChunk, a.Rows); k++ {
				if v := a.Data[k*m+i]; v != 0 {
					rows[n], coef[n] = int32(k), v
					n++
				}
			}
			addRows(drow, b, rows[:n], coef[:n])
		}
	}
}

// transposeBlock is the tile edge of Transpose: the tile's a rows and
// dst rows both stay in L1 while it is copied.
const transposeBlock = 64

// Transpose returns aᵀ as a new matrix (or into dst when non-nil). It
// copies 32×32 tiles, four a rows at a time (transpose4Kernel), so
// that each dst row takes four adjacent values per visit; the row and
// column remainders run here.
func Transpose(dst, a *Matrix) *Matrix {
	if dst == nil {
		dst = New(a.Cols, a.Rows)
	} else if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic("tensor: Transpose dst shape")
	}
	m, n := a.Rows, a.Cols
	for i0 := 0; i0 < m; i0 += transposeBlock {
		i1 := min(i0+transposeBlock, m)
		for j0 := 0; j0 < n; j0 += transposeBlock {
			j1 := min(j0+transposeBlock, n)
			j4 := j0 + (j1-j0)&^3
			i := i0
			for ; i+4 <= i1; i += 4 {
				if j4 > j0 {
					transpose4Kernel(dst.Data[j0*m+i:(j4-1)*m+i+4], m, a.Data[i*n+j0:(i+3)*n+j4], n)
				}
				for j := j4; j < j1; j++ {
					for r := i; r < i+4; r++ {
						dst.Data[j*m+r] = a.Data[r*n+j]
					}
				}
			}
			for ; i < i1; i++ {
				for j, v := range a.Data[i*n+j0 : i*n+j1] {
					dst.Data[(j0+j)*m+i] = v
				}
			}
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
