package tensor

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"etalstm/internal/rng"
)

// leReference encodes fs element by element with encoding/binary: the
// byte layout both WriteLE paths must produce.
func leReference(fs []float32) []byte {
	out := make([]byte, 0, 4*len(fs))
	for _, v := range fs {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

// leSample mixes signs, zeros, subnormals, infinities and NaN payloads,
// so a swapped byte anywhere changes the bits.
func leSample(n int, seed uint64) []float32 {
	r := rng.New(seed)
	special := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(0x7fc00001), math.MaxFloat32}
	fs := make([]float32, n)
	for i := range fs {
		if i%11 == 0 {
			fs[i] = special[(i/11)%len(special)]
			continue
		}
		fs[i] = float32(r.Uniform(-1e6, 1e6))
	}
	return fs
}

// lePaths names the two paths: the view a little-endian
// host takes and the chunked conversion a big-endian host takes. Both
// run on every host, so the big-endian path is exercised here too.
var lePaths = []struct {
	name  string
	write func(io.Writer, []float32) error
	read  func(io.Reader, []float32) error
}{
	{"host", WriteLE, ReadLE},
	{"chunked", writeLEChunked, readLEChunked},
}

func TestLEMatchesEncodingBinary(t *testing.T) {
	for _, n := range []int{0, 1, 3, leChunk - 1, leChunk, leChunk + 1, 3*leChunk + 7} {
		fs := leSample(n, uint64(n)+1)
		want := leReference(fs)
		for _, p := range lePaths {
			var buf bytes.Buffer
			if err := p.write(&buf, fs); err != nil {
				t.Fatalf("%s n=%d: write: %v", p.name, n, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s n=%d: bytes differ from encoding/binary", p.name, n)
			}
			got := leSample(n, 999) // stale values must be overwritten
			if err := p.read(bytes.NewReader(want), got); err != nil {
				t.Fatalf("%s n=%d: read: %v", p.name, n, err)
			}
			for i := range fs {
				if math.Float32bits(got[i]) != math.Float32bits(fs[i]) {
					t.Fatalf("%s n=%d: element %d reads %#x, want %#x", p.name, n, i, math.Float32bits(got[i]), math.Float32bits(fs[i]))
				}
			}
		}
	}
}

// TestLEReadShortInput: both paths report io.ReadFull's errors, EOF for
// an empty input and ErrUnexpectedEOF for one cut anywhere else,
// including on a chunk boundary.
func TestLEReadShortInput(t *testing.T) {
	const n = 2*leChunk + 5
	src := leReference(leSample(n, 3))
	for _, p := range lePaths {
		for _, cut := range []int{0, 1, 4, 4 * leChunk, 4*leChunk + 2, len(src) - 1} {
			want := io.ErrUnexpectedEOF
			if cut == 0 {
				want = io.EOF
			}
			err := p.read(bytes.NewReader(src[:cut]), make([]float32, n))
			if err != want {
				t.Fatalf("%s cut at %d: error %v, want %v", p.name, cut, err, want)
			}
		}
	}
}

// TestWriteLEOneWriteOfStorage: on a little-endian host WriteLE hands
// the writer the slice's own storage in a single Write, with no copy.
func TestWriteLEOneWriteOfStorage(t *testing.T) {
	if !hostLE {
		t.Skip("big-endian host: WriteLE converts through a chunk")
	}
	fs := leSample(3*leChunk, 5)
	var w recordWriter
	if err := WriteLE(&w, fs); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 1 || len(w.writes[0]) != 4*len(fs) || &w.writes[0][0] != &leBytes(fs)[0] {
		t.Fatalf("WriteLE made %d writes, want one of fs's storage", len(w.writes))
	}
}

type recordWriter struct{ writes [][]byte }

func (w *recordWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, p)
	return len(p), nil
}
