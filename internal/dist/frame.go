package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"etalstm/internal/rtrace"
)

// The TCP transport speaks length-prefixed frames:
//
//	v1: [4B big-endian length N][1B version][1B type][4B step][N-6 byte body]
//	v2: [4B length N][1B version][1B type][4B step]
//	    [16B trace id][8B span id][1B flags][N-31 byte body]
//
// The length counts everything after itself (version through body), so
// N >= 6 always; a reader can frame the stream with one 4-byte read.
// Step is the coordinator's monotone optimizer-step counter for
// gradient frames and 0 for control frames.
//
// v2 extends every frame with a 25-byte trace context so one optimizer
// step resolves to a single cross-process trace: FrameGrads carries the
// worker's upload-span identity, FrameMerged the coordinator's step
// span, and workers re-parent their spans onto the coordinator's trace
// (rtrace.Span.Adopt). A zero trace id means "no trace"; the flags bit
// FlagSampled forwards the head-sampling decision so every process in
// the step keeps or drops the trace together. Decoders accept both
// versions — a v1 frame simply has a zero trace context — while
// encoders emit v2 unless the frame pins Ver.
const (
	// FrameVersion is the protocol version new frames are encoded with;
	// decoders also accept v1 so mixed-version fleets can drain.
	FrameVersion = 2
	// frameHeader is the v1 byte count the length prefix covers before
	// the body (version + type + step).
	frameHeader = 6
	// traceCtxLen is the v2 trace-context extension: trace id, span id
	// and a flags byte.
	traceCtxLen = 16 + 8 + 1
	// frameHeaderV2 is the v2 pre-body byte count.
	frameHeaderV2 = frameHeader + traceCtxLen
	// MaxFrameBody caps decoded body sizes so a corrupt or hostile
	// length prefix cannot ask the reader to allocate gigabytes.
	MaxFrameBody = 1 << 28

	// FlagSampled marks the frame's trace as head-sampled: the
	// receiving process's flight recorder should keep it too.
	FlagSampled byte = 1 << 0
)

// FrameType discriminates the transport's messages.
type FrameType byte

// The frame types, in handshake-then-steady-state order.
const (
	// FrameHello is worker → coordinator: body is the 8-byte geometry
	// checksum of the worker's model config.
	FrameHello FrameType = 1 + iota
	// FrameWelcome is coordinator → worker once every expected worker
	// has joined: body is [4B worker id][4B total workers].
	FrameWelcome
	// FrameGrads is worker → coordinator: body is [4B contribution
	// count] followed by a gradient payload (see codec.go).
	FrameGrads
	// FrameMerged is coordinator → worker: same body layout as
	// FrameGrads, holding the step's merged gradients and the total
	// contribution count to average by.
	FrameMerged
	// FrameBye is worker → coordinator: clean disconnect, empty body.
	FrameBye
	// FrameError carries a fatal diagnostic as a UTF-8 body in either
	// direction before the sender closes the connection.
	FrameError
)

func (t FrameType) valid() bool { return t >= FrameHello && t <= FrameError }

// Frame is one decoded transport message. Body aliases the decode
// buffer: it is only valid until that buffer's next use.
type Frame struct {
	// Ver pins the encoding version (0 = FrameVersion). Decoders set it
	// to the version they saw, so decode → encode reproduces the exact
	// wire bytes for either version.
	Ver  byte
	Type FrameType
	Step uint32
	// TraceID/SpanID/Flags are the v2 trace context (zero on v1 frames
	// and on untraced v2 frames).
	TraceID rtrace.TraceID
	SpanID  rtrace.SpanID
	Flags   byte
	Body    []byte
}

// Traced reports whether the frame carries a trace context.
func (f Frame) Traced() bool { return !f.TraceID.IsZero() }

// Sampled reports the frame's head-sampling decision.
func (f Frame) Sampled() bool { return f.Flags&FlagSampled != 0 }

// AppendFrame appends f's length-prefixed encoding to dst and returns
// the extended slice (append-style, alloc-free once dst has capacity).
func AppendFrame(dst []byte, f Frame) []byte {
	return append(appendHeader(dst, f, len(f.Body)), f.Body...)
}

// appendHeader appends the length prefix and pre-body header of f,
// framing a body of bodyLen bytes that the caller sends after it.
func appendHeader(dst []byte, f Frame, bodyLen int) []byte {
	ver := f.Ver
	if ver == 0 {
		ver = FrameVersion
	}
	hdr := frameHeader
	if ver >= 2 {
		hdr = frameHeaderV2
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(hdr+bodyLen))
	dst = append(dst, ver, byte(f.Type))
	dst = binary.BigEndian.AppendUint32(dst, f.Step)
	if ver >= 2 {
		dst = append(dst, f.TraceID[:]...)
		dst = append(dst, f.SpanID[:]...)
		dst = append(dst, f.Flags)
	}
	return dst
}

// DecodeFrame parses one length-prefixed frame from the front of b,
// returning the frame (Body aliases b) and the bytes consumed. It
// rejects short inputs, oversized or undersized lengths, version
// mismatches and unknown types — the validation surface FuzzFrameDecode
// hammers. Both v1 and v2 frames decode; v1 yields a zero trace
// context.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < 4 {
		return Frame{}, 0, fmt.Errorf("dist: frame truncated before length prefix (%d bytes)", len(b))
	}
	n := binary.BigEndian.Uint32(b)
	if n < frameHeader || n > frameHeaderV2+MaxFrameBody {
		return Frame{}, 0, fmt.Errorf("dist: frame length %d outside [%d, %d]", n, frameHeader, frameHeaderV2+MaxFrameBody)
	}
	total := 4 + int(n)
	if len(b) < total {
		return Frame{}, 0, fmt.Errorf("dist: frame truncated: length prefix says %d, have %d", total, len(b))
	}
	ver := b[4]
	var hdr int
	switch ver {
	case 1:
		hdr = frameHeader
	case 2:
		if n < frameHeaderV2 {
			return Frame{}, 0, fmt.Errorf("dist: v2 frame length %d shorter than header %d", n, frameHeaderV2)
		}
		hdr = frameHeaderV2
	default:
		return Frame{}, 0, fmt.Errorf("dist: frame version %d, want 1 or %d", ver, FrameVersion)
	}
	if int(n)-hdr > MaxFrameBody {
		return Frame{}, 0, fmt.Errorf("dist: frame body %d exceeds cap %d", int(n)-hdr, MaxFrameBody)
	}
	typ := FrameType(b[5])
	if !typ.valid() {
		return Frame{}, 0, fmt.Errorf("dist: unknown frame type %d", typ)
	}
	f := parseHeader(b)
	f.Body = b[4+hdr : total]
	return f, total, nil
}

// parseHeader reads the version, type, step and (v2) trace context of
// the frame at the front of b, which starts at the length prefix and
// holds at least the whole header of a version already validated.
func parseHeader(b []byte) Frame {
	f := Frame{Ver: b[4], Type: FrameType(b[5]), Step: binary.BigEndian.Uint32(b[6:])}
	if f.Ver >= 2 {
		off := 4 + frameHeader
		copy(f.TraceID[:], b[off:off+16])
		copy(f.SpanID[:], b[off+16:off+24])
		f.Flags = b[off+24]
	}
	return f
}

// ReadFrame reads one frame from r into scratch (grown as needed) and
// returns the frame plus the possibly-grown scratch for reuse — the
// streaming counterpart of DecodeFrame with identical validation, and
// one more: a body longer than maxBody (itself capped at MaxFrameBody)
// is rejected from the length prefix alone, before anything is
// allocated or read. Callers pass the largest body the protocol state
// allows: helloBody during the handshake, the agreed geometry's
// gradient cap after it.
func ReadFrame(r io.Reader, scratch []byte, maxBody int) (Frame, []byte, error) {
	maxBody = min(maxBody, MaxFrameBody)
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, scratch, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < frameHeader || int64(n) > int64(frameHeaderV2+maxBody) {
		return Frame{}, scratch, fmt.Errorf("dist: frame length %d outside [%d, %d]", n, frameHeader, frameHeaderV2+maxBody)
	}
	need := 4 + int(n)
	if cap(scratch) < need {
		scratch = make([]byte, need)
	}
	scratch = scratch[:need]
	copy(scratch, hdr[:])
	if _, err := io.ReadFull(r, scratch[4:]); err != nil {
		return Frame{}, scratch, fmt.Errorf("dist: frame body: %w", err)
	}
	f, _, err := DecodeFrame(scratch)
	if err == nil && len(f.Body) > maxBody {
		err = fmt.Errorf("dist: frame body %d exceeds cap %d", len(f.Body), maxBody)
	}
	return f, scratch, err
}

// writeFrame writes f to w as its header bytes, built in buf, and its
// body in one writev, without copying the body; it returns the grown
// buffer so single-writer connections reuse it across frames.
func writeFrame(w io.Writer, buf []byte, f Frame) ([]byte, error) {
	vw := vecWriter{w: w, head: appendHeader(buf[:0], f, len(f.Body))}
	_, err := vw.Write(f.Body)
	if err == nil {
		err = vw.flush()
	}
	return vw.head, err
}

// vecWriter sends a frame whose header words are built in head and
// whose bulk is caller storage: each Write sends the pending head and
// the written slice together in one writev (on a TCP connection), so
// the slice is never copied, and keeps neither past the call.
type vecWriter struct {
	w    io.Writer
	head []byte
	vec  [2][]byte
	bufs net.Buffers
}

func (v *vecWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	v.vec = [2][]byte{v.head, p}
	v.bufs = v.vec[:]
	_, err := v.bufs.WriteTo(v.w)
	v.head = v.head[:0]
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// flush sends what is left of head.
func (v *vecWriter) flush() error {
	if len(v.head) == 0 {
		return nil
	}
	_, err := v.w.Write(v.head)
	v.head = v.head[:0]
	return err
}
