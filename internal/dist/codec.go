package dist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"etalstm/internal/compress"
	"etalstm/internal/model"
	"etalstm/internal/tensor"
)

// Gradient payload layout (the body of FrameGrads/FrameMerged after the
// 4-byte contribution count):
//
//	[1B encoding: 0 dense | 1 sparse]
//	per tensor, in canonical order (per layer: W0..W3, U0..U3, B0..B3;
//	then Proj, ProjB):
//	  dense:  [4B element count][count × 4B float32 bits LE]
//	  sparse: [4B pair count][count × 4B float32 bits LE values]
//	          [count × 4B uint32 LE flat indices, strictly increasing]
//
// Both sides derive tensor shapes from their own model geometry — the
// handshake's geometry checksum guarantees they agree — so the payload
// carries only counts for validation, not shapes.
const (
	encDense  = 0
	encSparse = 1
)

// GeomSum folds cfg's geometry into the 8-byte checksum the handshake
// compares, so a worker and coordinator built from different flags fail
// fast instead of mis-decoding each other's payloads.
func GeomSum(cfg model.Config) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []int{cfg.InputSize, cfg.Hidden, cfg.Layers, cfg.SeqLen, cfg.Batch, cfg.OutSize, int(cfg.Loss)} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// tensorsOf returns flat matrix views of every tensor in g in canonical
// order; bias vectors are wrapped as 1×n matrices sharing storage.
func tensorsOf(g *model.Gradients) []*tensor.Matrix {
	out := make([]*tensor.Matrix, 0, 12*len(g.Layer)+2)
	for _, lg := range g.Layer {
		for i := range lg.W {
			out = append(out, lg.W[i])
		}
		for i := range lg.U {
			out = append(out, lg.U[i])
		}
		for i := range lg.B {
			out = append(out, &tensor.Matrix{Rows: 1, Cols: len(lg.B[i]), Data: lg.B[i]})
		}
	}
	out = append(out, g.Proj)
	return append(out, &tensor.Matrix{Rows: 1, Cols: len(g.ProjB), Data: g.ProjB})
}

// denseBytes is the dense wire cost of a gradient set's tensors: the
// payload the transport ships when compression is off (4 bytes per
// element plus the per-tensor count word).
func denseBytes(tensors []*tensor.Matrix) int64 {
	var n int64
	for _, m := range tensors {
		n += 4 + 4*int64(len(m.Data))
	}
	return n
}

// sparseWireBytes is the wire cost of one sparse-encoded tensor: the
// count word plus a (value, index) pair per survivor. Unlike
// Sparse.Bytes — the paper's 16-bit-index DMA estimate — this reflects
// what the TCP codec actually ships.
func sparseWireBytes(nnz int) int64 { return 4 + 8*int64(nnz) }

// gradBodyCap is the largest FrameGrads/FrameMerged body the codec can
// produce for g's geometry: the contribution count, the encoding byte,
// and per tensor a count word plus, at worst, a sparse (value, index)
// pair for every element — more than the dense encoding's 4 bytes per
// element. The transport caps every post-handshake frame by it.
func gradBodyCap(g *model.Gradients) int {
	n := 4 + 1
	for _, m := range tensorsOf(g) {
		n += int(sparseWireBytes(len(m.Data)))
	}
	return n
}

// appendDense appends the dense encoding of tensors to dst.
func appendDense(dst []byte, tensors []*tensor.Matrix) []byte {
	dst = append(dst, encDense)
	for _, m := range tensors {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Data)))
		for _, v := range m.Data {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	return dst
}

// appendSparse appends the sparse encoding of tensors to dst, running
// each tensor through its error-feedback accumulator first (fb[i]
// belongs to tensors[i] and persists across steps). It reports the
// wire and dense byte costs of the payload it built.
func appendSparse(dst []byte, tensors []*tensor.Matrix, fb []*compress.Feedback, opts CompressOptions, scratch *compress.Sparse) (out []byte, wire, dense int64) {
	dst = append(dst, encSparse)
	for i, m := range tensors {
		var s *compress.Sparse
		if opts.Threshold > 0 {
			s = fb[i].EncodeInto(scratch, m, opts.Threshold)
		} else {
			s = fb[i].EncodeTopK(scratch, m, opts.keep())
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(s.NNZ()))
		for _, v := range s.Values {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
		for _, idx := range s.Indices {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(idx))
		}
		wire += sparseWireBytes(s.NNZ())
		dense += 4 + 4*int64(len(m.Data))
	}
	return dst, wire, dense
}

// decodeGradients decodes a gradient payload into g, whose geometry
// supplies every tensor shape. Dense payloads overwrite every element;
// sparse payloads zero each tensor and scatter the pairs, so g always
// leaves holding exactly the transmitted values.
func decodeGradients(body []byte, g *model.Gradients) error {
	if len(body) < 1 {
		return fmt.Errorf("dist: gradient payload missing encoding byte")
	}
	enc := body[0]
	if enc != encDense && enc != encSparse {
		return fmt.Errorf("dist: unknown gradient encoding %d", enc)
	}
	body = body[1:]
	u32 := func() (uint32, error) {
		if len(body) < 4 {
			return 0, fmt.Errorf("dist: gradient payload truncated")
		}
		v := binary.BigEndian.Uint32(body)
		body = body[4:]
		return v, nil
	}
	for _, m := range tensorsOf(g) {
		n, err := u32()
		if err != nil {
			return err
		}
		switch enc {
		case encDense:
			if int(n) != len(m.Data) {
				return fmt.Errorf("dist: dense tensor count %d, geometry wants %d", n, len(m.Data))
			}
			if len(body) < 4*int(n) {
				return fmt.Errorf("dist: gradient payload truncated")
			}
			for i := range m.Data {
				m.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
			}
			body = body[4*n:]
		case encSparse:
			if int(n) > len(m.Data) {
				return fmt.Errorf("dist: sparse tensor %d pairs exceed %d elements", n, len(m.Data))
			}
			if len(body) < 8*int(n) {
				return fmt.Errorf("dist: gradient payload truncated")
			}
			for i := range m.Data {
				m.Data[i] = 0
			}
			idxs := body[4*n:]
			prev := -1
			for i := 0; i < int(n); i++ {
				idx := int(binary.LittleEndian.Uint32(idxs[4*i:]))
				if idx >= len(m.Data) || idx <= prev {
					return fmt.Errorf("dist: sparse index %d out of order or range (%d elements)", idx, len(m.Data))
				}
				prev = idx
				m.Data[idx] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
			}
			body = body[8*n:]
		default:
			return fmt.Errorf("dist: unknown gradient encoding %d", enc)
		}
	}
	if len(body) != 0 {
		return fmt.Errorf("dist: %d trailing bytes after gradient payload", len(body))
	}
	return nil
}

// feedbackFor sizes an error-feedback accumulator set for one gradient
// set's tensors (one Feedback per tensor, persisting across steps).
func feedbackFor(tensors []*tensor.Matrix) []*compress.Feedback {
	fb := make([]*compress.Feedback, len(tensors))
	for i := range fb {
		fb[i] = &compress.Feedback{}
	}
	return fb
}
