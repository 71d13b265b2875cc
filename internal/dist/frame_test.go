package dist

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundtrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, Body: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: FrameWelcome, Step: 0, Body: make([]byte, 8)},
		{Type: FrameGrads, Step: 41, Body: []byte("payload")},
		{Type: FrameMerged, Step: 42, Body: nil},
		{Type: FrameBye},
		{Type: FrameError, Body: []byte("boom")},
	}
	var stream []byte
	for _, f := range frames {
		stream = AppendFrame(stream, f)
	}
	// Decode the concatenated stream frame by frame.
	rest := stream
	for i, want := range frames {
		got, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Step != want.Step || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("frame %d roundtrip: got %+v want %+v", i, got, want)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d undecoded bytes", len(rest))
	}

	// The streaming reader must agree, reusing one scratch buffer.
	r := bytes.NewReader(stream)
	var scratch []byte
	for i, want := range frames {
		var got Frame
		var err error
		got, scratch, err = ReadFrame(r, scratch, MaxFrameBody)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Step != want.Step || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("ReadFrame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, _, err := ReadFrame(r, scratch, MaxFrameBody); err != io.EOF {
		t.Fatalf("expected EOF at stream end, got %v", err)
	}
}

func TestDecodeFrameRejectsCorruption(t *testing.T) {
	good := AppendFrame(nil, Frame{Type: FrameGrads, Step: 7, Body: []byte("abc")})
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"short-prefix", func(b []byte) []byte { return b[:3] }, "truncated"},
		{"truncated-body", func(b []byte) []byte { return b[:len(b)-1] }, "truncated"},
		{"undersized-length", func(b []byte) []byte { b[3] = 5; return b }, "outside"},
		{"oversized-length", func(b []byte) []byte { b[0] = 0xff; return b }, "outside"},
		{"bad-version", func(b []byte) []byte { b[4] = 9; return b }, "version"},
		{"bad-type", func(b []byte) []byte { b[5] = 0; return b }, "type"},
		{"bad-type-high", func(b []byte) []byte { b[5] = 200; return b }, "type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte(nil), good...))
			if _, _, err := DecodeFrame(b); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestReadFrameRejectsHostileLength(t *testing.T) {
	// A hostile length prefix must be rejected before any allocation of
	// its claimed size.
	b := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadFrame(bytes.NewReader(b), nil, MaxFrameBody); err == nil {
		t.Fatal("hostile length accepted")
	}
}
