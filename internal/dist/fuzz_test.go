package dist

import (
	"bytes"
	"testing"
)

// FuzzFrameDecode hammers the length-prefixed frame decoder — the bytes
// a coordinator reads straight off accepted sockets — with the
// invariants a hostile or corrupt peer must not be able to break:
// no panic, no oversized allocation, and decode(encode(f)) == f for
// every frame the decoder accepts.
func FuzzFrameDecode(f *testing.F) {
	// Seeds: every frame type round-tripped, plus the corrupt shapes the
	// unit tests pin (short prefix, truncated body, hostile length,
	// version and type mismatches). testdata/fuzz/FuzzFrameDecode holds
	// further committed regression inputs.
	for _, fr := range []Frame{
		{Type: FrameHello, Body: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: FrameWelcome, Body: make([]byte, 8)},
		{Type: FrameGrads, Step: 3, Body: []byte{0, 0, 0, 1, encDense}},
		{Type: FrameMerged, Step: 9, Body: []byte{0, 0, 0, 2, encSparse}},
		{Type: FrameBye},
		{Type: FrameError, Body: []byte("bad geometry")},
	} {
		f.Add(AppendFrame(nil, fr))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 1})
	f.Add([]byte{0, 0, 0, 6, 2, 1, 0, 0, 0, 0})       // bad version
	f.Add([]byte{0, 0, 0, 6, 1, 99, 0, 0, 0, 0})      // bad type
	f.Add([]byte{0, 0, 0, 7, 1, 3, 0, 0, 0, 0, 0xAB}) // 1-byte body

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < frameHeader+4 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if !fr.Type.valid() {
			t.Fatalf("decoder accepted invalid type %d", fr.Type)
		}
		if len(fr.Body) > MaxFrameBody {
			t.Fatalf("body %d exceeds cap", len(fr.Body))
		}
		// Accepted frames must re-encode to exactly the consumed bytes.
		if re := AppendFrame(nil, fr); !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data[:n])
		}
		// And the streaming reader must agree with the in-memory decoder.
		fr2, _, err := ReadFrame(bytes.NewReader(data), nil, MaxFrameBody)
		if err != nil {
			t.Fatalf("ReadFrame rejected what DecodeFrame accepted: %v", err)
		}
		if fr2.Type != fr.Type || fr2.Step != fr.Step || !bytes.Equal(fr2.Body, fr.Body) {
			t.Fatal("ReadFrame and DecodeFrame disagree")
		}
	})
}
