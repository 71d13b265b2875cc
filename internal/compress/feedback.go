// Gradient-traffic extensions of the MS1 codec: alloc-free encoding into
// reusable buffers, top-k threshold selection, and an error-feedback
// accumulator that makes lossy gradient compression convergence-safe
// (Deep-Gradient-Compression style: dropped residuals are carried
// forward, never discarded — cf. Zhu et al., arXiv:1806.00512, on how
// much sparsification LSTM backward passes tolerate).
package compress

import (
	"math"

	"etalstm/internal/tensor"
)

// EncodeInto is the reusable-buffer variant of Encode: it prunes
// |v| < threshold from m into dst, reusing dst's Values/Indices storage
// so the warm path allocates nothing once the slices have grown to the
// working sparsity. dst must be non-nil; it is returned for chaining.
func EncodeInto(dst *Sparse, m *tensor.Matrix, threshold float32) *Sparse {
	dst.Rows, dst.Cols = m.Rows, m.Cols
	dst.Values = dst.Values[:0]
	dst.Indices = dst.Indices[:0]
	for i, v := range m.Data {
		av := v
		if av < 0 {
			av = -av
		}
		if av >= threshold {
			dst.Values = append(dst.Values, v)
			dst.Indices = append(dst.Indices, int32(i))
		}
	}
	return dst
}

// TopKThreshold returns a pruning threshold that keeps approximately
// the keepFrac largest-magnitude entries of data: the magnitude of the
// k-th largest |value| (k = max(1, round(keepFrac·len))), found by
// quickselect over scratch. Encoding with the returned threshold keeps
// every entry at least that large — ties can retain slightly more than
// k. A zero selection (k-th largest magnitude is 0) degrades to the
// smallest positive float so exact zeros are always dropped. scratch is
// reused when large enough; the possibly-grown buffer is returned so
// callers can keep the selection alloc-free across steps.
func TopKThreshold(data []float32, keepFrac float64, scratch []float32) (float32, []float32) {
	n := len(data)
	if n == 0 {
		return math.SmallestNonzeroFloat32, scratch
	}
	k := int(float64(keepFrac*float64(n)) + 0.5) // rounded: no FMA
	if k < 1 {
		k = 1
	}
	if k >= n {
		// Keep everything except exact zeros.
		return math.SmallestNonzeroFloat32, scratch
	}
	if cap(scratch) < n {
		scratch = make([]float32, n)
	}
	scratch = scratch[:n]
	for i, v := range data {
		if v < 0 {
			v = -v
		}
		scratch[i] = v
	}
	th := quickselect(scratch, n-k) // k-th largest = (n-k)-th smallest
	if th <= 0 {
		th = math.SmallestNonzeroFloat32
	}
	return th, scratch
}

// quickselect returns the element that would sit at index i of the
// sorted slice, partitioning a in place (median-of-three pivots keep
// sorted and constant inputs off the quadratic path).
func quickselect(a []float32, i int) float32 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := partition(a, lo, hi)
		switch {
		case i < p:
			hi = p - 1
		case i > p:
			lo = p + 1
		default:
			return a[p]
		}
	}
	return a[lo]
}

func partition(a []float32, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if a[mid] < a[lo] {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi] < a[lo] {
		a[hi], a[lo] = a[lo], a[hi]
	}
	if a[hi] < a[mid] {
		a[hi], a[mid] = a[mid], a[hi]
	}
	pivot := a[mid]
	a[mid], a[hi] = a[hi], a[mid]
	j := lo
	for i := lo; i < hi; i++ {
		if a[i] < pivot {
			a[i], a[j] = a[j], a[i]
			j++
		}
	}
	a[j], a[hi] = a[hi], a[j]
	return j
}

// Feedback is a per-tensor error-feedback accumulator for lossy
// gradient compression: each encode first adds the residual the
// previous encodes dropped, then stores whatever falls below the
// threshold back into the buffer. Gradient mass is therefore never
// lost, only delayed — elementwise, for every step,
//
//	raw + residual_in == transmitted + residual_out
//
// exactly (each element takes one float32 addition and then lands
// wholly on one side), so the cumulative transmitted signal converges
// to the cumulative raw signal.
//
// One Feedback instance belongs to one tensor of one replica's gradient
// set; it sizes itself lazily to the first encode and is not safe for
// concurrent use.
type Feedback struct {
	buf  []float32 // dropped residuals, same flat shape as the tensor
	comp []float32 // compensated values scratch
	sel  []float32 // quickselect scratch (top-k only)
}

// Residual exposes the accumulated dropped values (aliased, same flat
// layout as the tensor) — test and introspection surface.
func (f *Feedback) Residual() []float32 { return f.buf }

func (f *Feedback) ensure(n int) {
	if cap(f.buf) < n {
		grown := make([]float32, n)
		copy(grown, f.buf)
		f.buf = grown
	}
	f.buf = f.buf[:n]
	if cap(f.comp) < n {
		f.comp = make([]float32, n)
	}
	f.comp = f.comp[:n]
}

// EncodeInto compensates m with the accumulated residual, encodes the
// compensated values at the fixed threshold into dst (reusing dst's
// storage), and retains every dropped compensated value in the
// residual buffer. m itself is not modified.
func (f *Feedback) EncodeInto(dst *Sparse, m *tensor.Matrix, threshold float32) *Sparse {
	f.ensure(len(m.Data))
	for i, v := range m.Data {
		f.comp[i] = v + f.buf[i]
	}
	return f.encodeComp(dst, m, threshold)
}

// EncodeTopK compensates m with the accumulated residual, keeps the
// keepFrac largest-magnitude compensated entries (threshold via
// TopKThreshold), and retains the rest in the residual buffer.
func (f *Feedback) EncodeTopK(dst *Sparse, m *tensor.Matrix, keepFrac float64) *Sparse {
	f.ensure(len(m.Data))
	for i, v := range m.Data {
		f.comp[i] = v + f.buf[i]
	}
	th, sel := TopKThreshold(f.comp, keepFrac, f.sel)
	f.sel = sel
	return f.encodeComp(dst, m, th)
}

// encodeComp encodes f.comp into dst and splits each element between
// the encoding (kept) and the residual buffer (dropped).
func (f *Feedback) encodeComp(dst *Sparse, m *tensor.Matrix, threshold float32) *Sparse {
	dst.Rows, dst.Cols = m.Rows, m.Cols
	dst.Values = dst.Values[:0]
	dst.Indices = dst.Indices[:0]
	for i, v := range f.comp {
		av := v
		if av < 0 {
			av = -av
		}
		if av >= threshold {
			dst.Values = append(dst.Values, v)
			dst.Indices = append(dst.Indices, int32(i))
			f.buf[i] = 0
		} else {
			f.buf[i] = v
		}
	}
	return dst
}
