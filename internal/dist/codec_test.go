package dist

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"etalstm/internal/compress"
	"etalstm/internal/model"
	"etalstm/internal/rng"
)

func testCfg() model.Config {
	return model.Config{InputSize: 3, Hidden: 4, Layers: 2, SeqLen: 5, Batch: 2, OutSize: 3, Loss: model.SingleLoss}
}

// fillGradients populates every tensor with a deterministic mix of
// signed values and exact zeros.
func fillGradients(g *model.Gradients, seed uint64) {
	r := rng.New(seed)
	for _, m := range tensorsOf(g) {
		for i := range m.Data {
			if r.Intn(4) == 0 {
				m.Data[i] = 0
				continue
			}
			m.Data[i] = float32(r.Uniform(-2, 2))
		}
	}
}

func gradientsEqual(a, b *model.Gradients) bool {
	ta, tb := tensorsOf(a), tensorsOf(b)
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if len(ta[i].Data) != len(tb[i].Data) {
			return false
		}
		for j := range ta[i].Data {
			if math.Float32bits(ta[i].Data[j]) != math.Float32bits(tb[i].Data[j]) {
				return false
			}
		}
	}
	return true
}

// denseFrame encodes g as a dense FrameGrads frame with writeDense.
func denseFrame(t *testing.T, g *model.Gradients, contribs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeDense(&buf, nil, Frame{Type: FrameGrads, Step: 5}, contribs, tensorsOf(g)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// densePayload is the gradient payload (after the contribution count)
// of writeDense's encoding of g.
func densePayload(t *testing.T, g *model.Gradients) []byte {
	t.Helper()
	f, _, err := DecodeFrame(denseFrame(t, g, 1))
	if err != nil {
		t.Fatal(err)
	}
	return f.Body[4:]
}

func TestDenseCodecRoundtripBitwise(t *testing.T) {
	cfg := testCfg()
	src, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillGradients(src, 7)
	frame := denseFrame(t, src, 3)
	f, n, err := DecodeFrame(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("writeDense frame: consumed %d of %d bytes, %v", n, len(frame), err)
	}
	body := f.Body[4:]
	if got, want := int64(len(body)-1), denseBytes(tensorsOf(src)); got != want {
		t.Fatalf("dense payload %d bytes, accounting says %d", got, want)
	}
	if len(f.Body) != denseBody(tensorsOf(src)) {
		t.Fatalf("dense body %d bytes, denseBody says %d", len(f.Body), denseBody(tensorsOf(src)))
	}
	// The buffered decoder and the streaming reader both restore src.
	dst, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillGradients(dst, 99) // stale values must be fully overwritten
	if err := decodeGradients(body, dst); err != nil {
		t.Fatal(err)
	}
	if !gradientsEqual(src, dst) {
		t.Fatal("dense roundtrip not bitwise")
	}
	fillGradients(dst, 99)
	rx := newGradReader(bytes.NewReader(frame), FrameGrads, dst)
	got, contribs, size, err := rx.next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 5 || contribs != 3 || size != len(f.Body) {
		t.Fatalf("streamed frame: step %d contribs %d size %d", got.Step, contribs, size)
	}
	if rx.scratch != nil {
		t.Fatal("dense frame took the buffered path")
	}
	if !gradientsEqual(src, dst) {
		t.Fatal("streamed dense roundtrip not bitwise")
	}
}

// TestDenseWireLayoutUnchanged: writeDense's frame is byte for byte
// the frame an element-by-element encoder builds — header, big-endian
// contribution count and count words, little-endian float bits — for
// both frame versions.
func TestDenseWireLayoutUnchanged(t *testing.T) {
	src, _ := model.NewGradientsFor(testCfg())
	fillGradients(src, 17)
	for _, ver := range []byte{1, 2} {
		body := binary.BigEndian.AppendUint32(nil, 6)
		body = append(body, encDense)
		for _, m := range tensorsOf(src) {
			body = binary.BigEndian.AppendUint32(body, uint32(len(m.Data)))
			for _, v := range m.Data {
				body = binary.LittleEndian.AppendUint32(body, math.Float32bits(v))
			}
		}
		f := Frame{Ver: ver, Type: FrameMerged, Step: 9, Flags: FlagSampled}
		f.TraceID[0], f.SpanID[7] = 0xab, 0xcd
		var got bytes.Buffer
		if _, err := writeDense(&got, nil, f, 6, tensorsOf(src)); err != nil {
			t.Fatal(err)
		}
		f.Body = body
		if want := AppendFrame(nil, f); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("v%d: writeDense frame differs from the reference encoding", ver)
		}
	}
}

func TestSparseCodecRoundtripThreshold(t *testing.T) {
	cfg := testCfg()
	src, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillGradients(src, 11)
	tensors := tensorsOf(src)
	fb := feedbackFor(tensors)
	var scratch compress.Sparse
	// Threshold 0 keeps every nonzero compensated value: decoding must
	// reproduce src exactly (first step, residuals all zero — only exact
	// zeros are dropped, and decode re-zeroes them).
	body, wire, dense := appendSparse(nil, tensors, fb, CompressOptions{Threshold: math.SmallestNonzeroFloat32}, &scratch)
	if wire <= 0 || dense != denseBytes(tensors) {
		t.Fatalf("accounting: wire %d dense %d want dense %d", wire, dense, denseBytes(tensors))
	}
	dst, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillGradients(dst, 99)
	if err := decodeGradients(body, dst); err != nil {
		t.Fatal(err)
	}
	if !gradientsEqual(src, dst) {
		t.Fatal("keep-everything sparse roundtrip not bitwise")
	}
}

// TestSparseErrorFeedbackConservation pins the mass-conservation
// identity: at every step, for every element,
// raw + residual_in == transmitted + residual_out exactly.
func TestSparseErrorFeedbackConservation(t *testing.T) {
	cfg := testCfg()
	g, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tensors := tensorsOf(g)
	fb := feedbackFor(tensors)
	var scratch compress.Sparse
	for step := 0; step < 5; step++ {
		fillGradients(g, uint64(step+1))
		resIn := make([][]float32, len(tensors))
		for i := range tensors {
			resIn[i] = append([]float32(nil), fb[i].Residual()...)
		}
		body, _, _ := appendSparse(nil, tensors, fb, CompressOptions{KeepFrac: 0.1}, &scratch)
		if err := decodeGradients(body, recv); err != nil {
			t.Fatal(err)
		}
		rt := tensorsOf(recv)
		for i, m := range tensors {
			resOut := fb[i].Residual()
			for j, raw := range m.Data {
				var prev float32
				if len(resIn[i]) > j {
					prev = resIn[i][j]
				}
				want := raw + prev
				got := rt[i].Data[j] + resOut[j]
				if math.Float32bits(want) != math.Float32bits(got) {
					t.Fatalf("step %d tensor %d elem %d: raw+res_in %v != sent+res_out %v", step, i, j, want, got)
				}
			}
		}
	}
}

func TestDecodeGradientsRejectsCorruption(t *testing.T) {
	cfg := testCfg()
	src, _ := model.NewGradientsFor(cfg)
	fillGradients(src, 3)
	dst, _ := model.NewGradientsFor(cfg)
	dense := densePayload(t, src)

	fb := feedbackFor(tensorsOf(src))
	var scratch compress.Sparse
	sparse, _, _ := appendSparse(nil, tensorsOf(src), fb, CompressOptions{KeepFrac: 0.2}, &scratch)

	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"empty", nil, "encoding"},
		{"unknown-encoding", []byte{7}, "encoding"},
		{"dense-truncated", dense[:len(dense)-2], "truncated"},
		{"dense-trailing", append(append([]byte(nil), dense...), 0), "trailing"},
		{"sparse-truncated", sparse[:len(sparse)-1], "truncated"},
		{"dense-count-mismatch", func() []byte {
			b := append([]byte(nil), dense...)
			b[4] ^= 0x01 // flip the first tensor's element count
			return b
		}(), ""},
		{"sparse-index-out-of-range", func() []byte {
			b := append([]byte(nil), sparse...)
			n := int(uint32(b[1])<<24 | uint32(b[2])<<16 | uint32(b[3])<<8 | uint32(b[4]))
			if n == 0 {
				t.Skip("first tensor empty under this seed")
			}
			// Last index of the first tensor's index block (LE u32).
			off := 5 + 4*n + 4*(n-1)
			b[off] = 0xff
			b[off+1] = 0xff
			return b
		}(), "index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeGradients(tc.body, dst)
			if err == nil {
				t.Fatal("corrupt payload accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestGeomSumDiscriminates(t *testing.T) {
	base := testCfg()
	mut := []func(*model.Config){
		func(c *model.Config) { c.InputSize++ },
		func(c *model.Config) { c.Hidden++ },
		func(c *model.Config) { c.Layers++ },
		func(c *model.Config) { c.SeqLen++ },
		func(c *model.Config) { c.Batch++ },
		func(c *model.Config) { c.OutSize++ },
		func(c *model.Config) { c.Loss = model.PerTimestampLoss },
	}
	want := GeomSum(base)
	if want != GeomSum(base) {
		t.Fatal("GeomSum not deterministic")
	}
	for i, m := range mut {
		c := base
		m(&c)
		if GeomSum(c) == want {
			t.Fatalf("mutation %d not reflected in geometry checksum", i)
		}
	}
}
