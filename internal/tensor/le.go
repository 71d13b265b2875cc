package tensor

import (
	"encoding/binary"
	"io"
	"math"
	"unsafe"
)

// Little-endian float32 streams. The gradient frames of the TCP sync
// and the checkpoint files both store float32 values as their IEEE-754
// bits in little-endian byte order, which is already how amd64 and
// arm64 hold a []float32 in memory. On such hosts WriteLE and ReadLE
// hand the slice's own storage to the writer or reader, with no
// per-element encode, decode or copy. A big-endian host, where that
// view would carry the wrong byte order, converts through a bounded
// chunk instead; both paths produce and accept the same bytes.

// hostLE reports whether a float32 in memory already has the wire
// layout.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// leChunk is how many floats the big-endian path converts per Write or
// Read.
const leChunk = 1024

// leBytes is the byte view of fs's storage (the package's only use of
// unsafe). It is the little-endian encoding of fs only when hostLE.
func leBytes(fs []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(fs))), 4*len(fs))
}

// WriteLE writes fs to w as little-endian float32 bits. On a
// little-endian host that is one w.Write of fs's own storage; on a
// big-endian host it is one w.Write per chunk of leChunk floats, from
// a reused buffer, so w must not keep a slice past its Write call (the
// io.Writer contract).
func WriteLE(w io.Writer, fs []float32) error {
	if hostLE {
		_, err := w.Write(leBytes(fs))
		return err
	}
	return writeLEChunked(w, fs)
}

// ReadLE fills fs from r's little-endian float32 bits with io.ReadFull
// semantics: io.EOF when r ends before the first byte,
// io.ErrUnexpectedEOF when it ends partway. On a little-endian host r
// reads straight into fs's storage. After an error fs may be partly
// overwritten.
func ReadLE(r io.Reader, fs []float32) error {
	if hostLE {
		_, err := io.ReadFull(r, leBytes(fs))
		return err
	}
	return readLEChunked(r, fs)
}

// writeLEChunked is WriteLE's portable path: each chunk is converted to
// little-endian bits in a scratch buffer and written.
func writeLEChunked(w io.Writer, fs []float32) error {
	var buf [4 * leChunk]byte
	for len(fs) > 0 {
		n := min(len(fs), leChunk)
		for i, v := range fs[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		fs = fs[n:]
	}
	return nil
}

// readLEChunked is ReadLE's portable path: each chunk is read into a
// scratch buffer and converted from little-endian bits.
func readLEChunked(r io.Reader, fs []float32) error {
	var buf [4 * leChunk]byte
	for done := 0; done < len(fs); {
		n := min(len(fs)-done, leChunk)
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			if err == io.EOF && done > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		for i := range fs[done : done+n] {
			fs[done+i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		done += n
	}
	return nil
}
