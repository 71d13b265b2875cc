package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
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

// denseBody is the body length of a dense gradient frame: the
// contribution count, the encoding byte and the dense payload.
func denseBody(tensors []*tensor.Matrix) int { return 4 + 1 + int(denseBytes(tensors)) }

// writeDense writes a dense gradient frame to w: f's header, the
// contribution count, then the dense encoding of tensors. Each tensor's
// values go out straight from its own storage (tensor.WriteLE), in one
// writev with the header words before it, so nothing is encoded or
// copied per element. buf holds the header words; the emptied buffer
// is returned for reuse.
func writeDense(w io.Writer, buf []byte, f Frame, contribs int, tensors []*tensor.Matrix) ([]byte, error) {
	head := appendHeader(buf[:0], f, denseBody(tensors))
	head = binary.BigEndian.AppendUint32(head, uint32(contribs))
	vw := vecWriter{w: w, head: append(head, encDense)}
	for _, m := range tensors {
		vw.head = binary.BigEndian.AppendUint32(vw.head, uint32(len(m.Data)))
		if err := tensor.WriteLE(&vw, m.Data); err != nil {
			return vw.head, err
		}
	}
	err := vw.flush()
	return vw.head, err
}

// readDense reads a dense payload, after its encoding byte, from r
// straight into tensors' storage. A count word that disagrees with the
// geometry is an error; so is r ending early, reported as a cut frame
// body wrapping io.ErrUnexpectedEOF.
func readDense(r io.Reader, tensors []*tensor.Matrix) error {
	var word [4]byte
	for _, m := range tensors {
		if _, err := io.ReadFull(r, word[:]); err != nil {
			return bodyErr(err)
		}
		if n := binary.BigEndian.Uint32(word[:]); int(n) != len(m.Data) {
			return fmt.Errorf("dist: dense tensor count %d, geometry wants %d", n, len(m.Data))
		}
		if err := tensor.ReadLE(r, m.Data); err != nil {
			return bodyErr(err)
		}
	}
	return nil
}

// bodyErr labels a read error inside a frame body; io.EOF there means
// the body was cut short.
func bodyErr(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("dist: frame body: %w", err)
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

// decodeGradients decodes a gradient payload held in memory into g,
// whose geometry supplies every tensor shape. Dense payloads overwrite
// every element; sparse payloads zero each tensor and scatter the
// pairs, so g always leaves holding exactly the transmitted values.
func decodeGradients(body []byte, g *model.Gradients) error {
	if len(body) < 1 {
		return fmt.Errorf("dist: gradient payload missing encoding byte")
	}
	switch body[0] {
	case encDense:
		r := bytes.NewReader(body[1:])
		if err := readDense(r, tensorsOf(g)); err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return errTruncated
			}
			return err
		}
		if r.Len() != 0 {
			return fmt.Errorf("dist: %d trailing bytes after gradient payload", r.Len())
		}
		return nil
	case encSparse:
		return decodeSparse(body[1:], g)
	default:
		return fmt.Errorf("dist: unknown gradient encoding %d", body[0])
	}
}

var errTruncated = errors.New("dist: gradient payload truncated")

// decodeSparse decodes a sparse payload, after its encoding byte, into
// g.
func decodeSparse(body []byte, g *model.Gradients) error {
	for _, m := range tensorsOf(g) {
		if len(body) < 4 {
			return errTruncated
		}
		n := binary.BigEndian.Uint32(body)
		body = body[4:]
		if int(n) > len(m.Data) {
			return fmt.Errorf("dist: sparse tensor %d pairs exceed %d elements", n, len(m.Data))
		}
		if len(body) < 8*int(n) {
			return errTruncated
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

// gradReader reads one connection's steady-state frames, decoding the
// gradient frames of type want into dst. A frame of type want whose
// body has exactly the geometry's dense length and the dense encoding
// byte is streamed: its header is parsed from the stream and each
// tensor's bytes are read straight into that tensor's storage. Sparse
// frames, control frames and frames of any other length take
// ReadFrame's buffered path, with its validation and error texts.
type gradReader struct {
	br      *bufio.Reader
	want    FrameType
	dst     *model.Gradients
	tensors []*tensor.Matrix
	maxBody int // largest frame body the agreed geometry allows
	dense   int // body length of a dense frame; -1 when over the cap
	scratch []byte
}

func newGradReader(r io.Reader, want FrameType, dst *model.Gradients) *gradReader {
	tensors := tensorsOf(dst)
	g := &gradReader{br: bufio.NewReader(r), want: want, dst: dst, tensors: tensors,
		maxBody: gradBodyCap(dst), dense: denseBody(tensors)}
	if g.dense > min(g.maxBody, MaxFrameBody) {
		g.dense = -1
	}
	return g
}

// next reads one frame. A frame of type want comes back with its
// payload decoded into dst, its contribution count and its body length
// (Body is nil); any other frame comes back with Body aliasing the
// reader's scratch buffer, valid until the next call.
func (g *gradReader) next() (f Frame, contribs, size int, err error) {
	if f, contribs, ok, err := g.stream(); ok {
		return f, contribs, g.dense, err
	}
	f, g.scratch, err = ReadFrame(g.br, g.scratch, g.maxBody)
	if err != nil || f.Type != g.want {
		return f, 0, 0, err
	}
	if len(f.Body) < 4 {
		return f, 0, 0, fmt.Errorf("dist: short gradient frame")
	}
	if err := decodeGradients(f.Body[4:], g.dst); err != nil {
		return f, 0, 0, err
	}
	size, contribs = len(f.Body), int(binary.BigEndian.Uint32(f.Body))
	f.Body = nil
	return f, contribs, size, nil
}

// stream reads the next frame straight into dst when it is a dense
// frame of type want (ok), peeking at its header first so that any
// other frame is left unread for the buffered path. Once the body is
// being read, an error leaves the stream unframeable.
func (g *gradReader) stream() (f Frame, contribs int, ok bool, err error) {
	p, err := g.br.Peek(4)
	if err != nil {
		return Frame{}, 0, false, nil // the buffered path reports it
	}
	var hdr int
	var ver byte
	switch int(binary.BigEndian.Uint32(p)) {
	case frameHeaderV2 + g.dense:
		hdr, ver = frameHeaderV2, 2
	case frameHeader + g.dense:
		hdr, ver = frameHeader, 1
	default:
		return Frame{}, 0, false, nil
	}
	// The length prefix promises at least these bytes.
	p, err = g.br.Peek(4 + hdr + 5)
	if err != nil || p[4] != ver || FrameType(p[5]) != g.want || p[4+hdr+4] != encDense {
		return Frame{}, 0, false, nil
	}
	f = parseHeader(p)
	contribs = int(binary.BigEndian.Uint32(p[4+hdr:]))
	g.br.Discard(4 + hdr + 5) // cannot fail: the bytes were peeked
	return f, contribs, true, readDense(g.br, g.tensors)
}
