// Package compress implements the near-zero pruning and sparse encoding
// the η-LSTM DMA module applies to BP-EW-P1 products (paper Sec. IV-A
// and Fig. 14): values whose magnitude falls below a threshold are
// dropped; survivors are stored as (value, index) pairs. The package
// also provides a bitmask codec as an ablation alternative and the
// sparsity statistics behind Fig. 6.
package compress

import (
	"fmt"
	"math"

	"etalstm/internal/tensor"
)

// DefaultThreshold is the near-zero pruning threshold the paper found
// to combine large memory savings with negligible accuracy loss
// (Sec. IV-A: "around 0.1").
const DefaultThreshold = 0.1

// Sparse is a value+index encoding of a pruned matrix: Values[i] lives
// at flat offset Indices[i] of the original Rows×Cols matrix. Indices
// are strictly increasing. This mirrors the WT data / WT index queue
// pair of the customized DMA module.
type Sparse struct {
	Rows, Cols int
	Values     []float32
	Indices    []int32
}

// Encode prunes |v| < threshold from m and returns the sparse encoding.
func Encode(m *tensor.Matrix, threshold float32) *Sparse {
	s := &Sparse{Rows: m.Rows, Cols: m.Cols}
	for i, v := range m.Data {
		av := v
		if av < 0 {
			av = -av
		}
		if av >= threshold {
			s.Values = append(s.Values, v)
			s.Indices = append(s.Indices, int32(i))
		}
	}
	return s
}

// Validate checks the structural invariants a record must hold before
// it can be decoded: matching Values/Indices lengths and strictly
// increasing indices inside the declared Rows×Cols range. Records built
// by Encode hold these by construction; records reassembled from
// external bytes (a wire payload, a fuzzer) may not.
func (s *Sparse) Validate() error {
	if s.Rows < 0 || s.Cols < 0 {
		return fmt.Errorf("compress: negative shape %dx%d", s.Rows, s.Cols)
	}
	if len(s.Values) != len(s.Indices) {
		return fmt.Errorf("compress: %d values vs %d indices", len(s.Values), len(s.Indices))
	}
	n := s.Rows * s.Cols
	prev := int32(-1)
	for _, idx := range s.Indices {
		if idx <= prev || int64(idx) >= int64(n) {
			return fmt.Errorf("compress: index %d out of order or range (%d elements)", idx, n)
		}
		prev = idx
	}
	return nil
}

// Decode reconstructs the dense matrix (pruned entries become zero).
// If dst is non-nil it is zeroed and filled in place; a shape mismatch
// between dst and the record is a programming error and panics, like
// the rest of the tensor package. A corrupt record — indices out of
// range or out of order, mismatched value/index counts — is rejected
// with an error rather than panicking, so hostile payloads cannot take
// the process down.
func (s *Sparse) Decode(dst *tensor.Matrix) (*tensor.Matrix, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if dst == nil {
		dst = tensor.New(s.Rows, s.Cols)
	} else {
		if dst.Rows != s.Rows || dst.Cols != s.Cols {
			panic(fmt.Sprintf("compress: Decode dst %dx%d want %dx%d",
				dst.Rows, dst.Cols, s.Rows, s.Cols))
		}
		dst.Zero()
	}
	for i, idx := range s.Indices {
		dst.Data[idx] = s.Values[i]
	}
	return dst, nil
}

// MustDecode is Decode for records that are valid by construction
// (built by Encode in this process). It panics on a corrupt record.
func (s *Sparse) MustDecode(dst *tensor.Matrix) *tensor.Matrix {
	m, err := s.Decode(dst)
	if err != nil {
		panic(err)
	}
	return m
}

// NNZ returns the number of retained (nonzero) entries.
func (s *Sparse) NNZ() int { return len(s.Values) }

// Sparsity returns the pruned fraction in [0, 1].
func (s *Sparse) Sparsity() float64 {
	total := s.Rows * s.Cols
	if total == 0 {
		return 0
	}
	return 1 - float64(len(s.Values))/float64(total)
}

// Bytes returns the encoded size: 4 B per value + 2 B per index (the
// DMA stores 16-bit indices relative to a 64 Ki-element tile; larger
// matrices are tiled, adding one 4 B tile header per 64 Ki elements).
func (s *Sparse) Bytes() int64 {
	const tileElems = 1 << 16
	tiles := (int64(s.Rows)*int64(s.Cols) + tileElems - 1) / tileElems
	return int64(len(s.Values))*4 + int64(len(s.Indices))*2 + tiles*4
}

// CompressionRatio returns encoded bytes / dense bytes (lower is
// better; 1.0 means no saving).
func (s *Sparse) CompressionRatio() float64 {
	dense := int64(s.Rows) * int64(s.Cols) * 4
	if dense == 0 {
		return 1
	}
	return float64(s.Bytes()) / float64(dense)
}

// Bitmask is the ablation codec: one presence bit per element plus the
// packed surviving values. It beats value+index when sparsity is below
// ~50 % and loses above it; the ablation bench quantifies the crossover.
type Bitmask struct {
	Rows, Cols int
	Mask       []uint64 // ceil(Rows*Cols/64) words, bit i = element i kept
	Values     []float32
}

// EncodeBitmask prunes |v| < threshold and returns the bitmask encoding.
func EncodeBitmask(m *tensor.Matrix, threshold float32) *Bitmask {
	n := m.Rows * m.Cols
	b := &Bitmask{Rows: m.Rows, Cols: m.Cols, Mask: make([]uint64, (n+63)/64)}
	for i, v := range m.Data {
		av := v
		if av < 0 {
			av = -av
		}
		if av >= threshold {
			b.Mask[i/64] |= 1 << (uint(i) % 64)
			b.Values = append(b.Values, v)
		}
	}
	return b
}

// Validate checks the structural invariants a bitmask record must hold
// before decoding: a mask sized for the declared shape, no presence
// bits beyond it, and exactly one packed value per set bit.
func (b *Bitmask) Validate() error {
	if b.Rows < 0 || b.Cols < 0 {
		return fmt.Errorf("compress: negative shape %dx%d", b.Rows, b.Cols)
	}
	n := b.Rows * b.Cols
	if len(b.Mask) != (n+63)/64 {
		return fmt.Errorf("compress: mask %d words for %d elements", len(b.Mask), n)
	}
	set := 0
	for i, w := range b.Mask {
		if i == len(b.Mask)-1 && n%64 != 0 && w>>(uint(n)%64) != 0 {
			return fmt.Errorf("compress: mask bits set beyond %d elements", n)
		}
		for ; w != 0; w &= w - 1 {
			set++
		}
	}
	if set != len(b.Values) {
		return fmt.Errorf("compress: %d mask bits vs %d values", set, len(b.Values))
	}
	return nil
}

// Decode reconstructs the dense matrix. Like Sparse.Decode it panics on
// a dst shape mismatch (programming error) but rejects corrupt records
// — wrong mask length, stray bits, value-count mismatch — with an
// error.
func (b *Bitmask) Decode(dst *tensor.Matrix) (*tensor.Matrix, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if dst == nil {
		dst = tensor.New(b.Rows, b.Cols)
	} else {
		if dst.Rows != b.Rows || dst.Cols != b.Cols {
			panic("compress: Bitmask.Decode dst shape")
		}
		dst.Zero()
	}
	vi := 0
	n := b.Rows * b.Cols
	for i := 0; i < n; i++ {
		if b.Mask[i/64]&(1<<(uint(i)%64)) != 0 {
			dst.Data[i] = b.Values[vi]
			vi++
		}
	}
	return dst, nil
}

// MustDecode is Decode for records that are valid by construction; it
// panics on a corrupt record.
func (b *Bitmask) MustDecode(dst *tensor.Matrix) *tensor.Matrix {
	m, err := b.Decode(dst)
	if err != nil {
		panic(err)
	}
	return m
}

// Bytes returns the encoded size: mask words + packed values.
func (b *Bitmask) Bytes() int64 {
	return int64(len(b.Mask))*8 + int64(len(b.Values))*4
}

// PruneError returns the max-absolute and root-mean-square error the
// pruning introduced relative to the original matrix — the quantity
// bounded by the threshold (maxErr < threshold by construction).
func PruneError(orig *tensor.Matrix, s *Sparse) (maxErr float64, rmse float64) {
	dec := s.MustDecode(nil)
	var sq float64
	for i, v := range orig.Data {
		d := math.Abs(float64(v) - float64(dec.Data[i]))
		if d > maxErr {
			maxErr = d
		}
		sq += float64(d * d) // rounded: no FMA
	}
	if n := len(orig.Data); n > 0 {
		rmse = math.Sqrt(sq / float64(n))
	}
	return maxErr, rmse
}

// Stats summarizes the compressibility of a matrix set at a threshold —
// the aggregate behind Fig. 6's "fraction below 0.1" comparison.
type Stats struct {
	Elements    int64
	Pruned      int64
	DenseBytes  int64
	SparseBytes int64
}

// Measure accumulates compression stats for ms at threshold.
func Measure(ms []*tensor.Matrix, threshold float32) Stats {
	var st Stats
	for _, m := range ms {
		s := Encode(m, threshold)
		st.Elements += int64(m.Size())
		st.Pruned += int64(m.Size() - s.NNZ())
		st.DenseBytes += m.Bytes()
		st.SparseBytes += s.Bytes()
	}
	return st
}

// PrunedFrac returns the pruned fraction.
func (s Stats) PrunedFrac() float64 {
	if s.Elements == 0 {
		return 0
	}
	return float64(s.Pruned) / float64(s.Elements)
}

// Ratio returns sparse bytes / dense bytes.
func (s Stats) Ratio() float64 {
	if s.DenseBytes == 0 {
		return 1
	}
	return float64(s.SparseBytes) / float64(s.DenseBytes)
}
