package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"etalstm/internal/model"
)

// countWordAt is the offset, in a v2 frame written by writeDense, of
// tensor k's count word.
func countWordAt(g *model.Gradients, k int) int {
	off := 4 + frameHeaderV2 + 4 + 1
	for _, m := range tensorsOf(g)[:k] {
		off += 4 + 4*len(m.Data)
	}
	return off
}

// streamFaults are dense-length gradient frames that must each be
// rejected. streamed says whether the fault is past the point where
// the reader commits to streaming the body.
func streamFaults(t *testing.T, cfg model.Config) []struct {
	name, want string
	streamed   bool
	frame      []byte
} {
	g, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillGradients(g, 21)
	good := denseFrame(t, g, 1)
	mid := len(tensorsOf(g)) / 2
	clone := func() []byte { return append([]byte(nil), good...) }
	return []struct {
		name, want string
		streamed   bool
		frame      []byte
	}{
		{"count-word-mid-tensors", "dense tensor count", true, func() []byte {
			b := clone()
			b[countWordAt(g, mid)+3] ^= 0x01
			return b
		}()},
		{"truncated-mid-tensor", "frame body", true, clone()[:countWordAt(g, mid)+4+6]},
		{"sparse-encoding-byte", "sparse", false, func() []byte {
			b := clone()
			b[4+frameHeaderV2+4] = encSparse
			return b
		}()},
	}
}

// TestStreamedFrameFaults: the streaming reader keeps every check of
// the buffered decoder. A count word that disagrees with the geometry
// partway through the tensors, or a body cut inside a tensor, is an
// error once the reader has committed to the stream; a dense-length
// frame carrying the sparse encoding byte is left to the buffered path
// and its sparse decoder.
func TestStreamedFrameFaults(t *testing.T) {
	cfg := testCfg()
	for _, tc := range streamFaults(t, cfg) {
		t.Run(tc.name, func(t *testing.T) {
			dst, _ := model.NewGradientsFor(cfg)
			rx := newGradReader(bytes.NewReader(tc.frame), FrameGrads, dst)
			_, _, _, err := rx.next()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if streamed := rx.scratch == nil; streamed != tc.streamed {
				t.Fatalf("streamed = %v, want %v", streamed, tc.streamed)
			}
			if tc.name == "truncated-mid-tensor" && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut body error %v does not wrap io.ErrUnexpectedEOF", err)
			}
		})
	}
}

// TestStreamedFrameFaultsOverTCP: the same faults sent to a
// coordinator after the handshake end the worker's session with the
// error and a closed connection.
func TestStreamedFrameFaultsOverTCP(t *testing.T) {
	cfg := testCfg()
	for _, tc := range streamFaults(t, cfg) {
		t.Run(tc.name, func(t *testing.T) {
			c := startTestCoordinator(t, cfg, CoordinatorOptions{ExpectWorkers: 1})
			conn := rawHandshake(t, c.Addr().String(), cfg)
			conn.Write(tc.frame)
			conn.(*net.TCPConn).CloseWrite()
			requireClosed(t, conn)
			if err := waitErr(t, c); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("session error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestStreamReaderRouting: only a frame of the wanted type with the
// dense length and encoding byte is streamed; others keep their body
// for the caller or the buffered decoder, and v1 dense frames stream
// like v2 ones.
func TestStreamReaderRouting(t *testing.T) {
	cfg := testCfg()
	src, _ := model.NewGradientsFor(cfg)
	fillGradients(src, 8)
	tensors := tensorsOf(src)
	frame := func(f Frame) []byte {
		var buf bytes.Buffer
		if _, err := writeDense(&buf, nil, f, 2, tensors); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v2 := frame(Frame{Type: FrameGrads, Step: 4})
	trailing := append(append([]byte(nil), v2...), 0)
	binary.BigEndian.PutUint32(trailing, binary.BigEndian.Uint32(trailing)+1)
	for _, tc := range []struct {
		name     string
		frame    []byte
		streamed bool
		typ      FrameType
		want     string // error text, "" for success
	}{
		{"v2-dense", v2, true, FrameGrads, ""},
		{"v1-dense", frame(Frame{Ver: 1, Type: FrameGrads, Step: 4}), true, FrameGrads, ""},
		{"other-type", frame(Frame{Type: FrameMerged, Step: 4}), false, FrameMerged, ""},
		{"dense-plus-trailing-byte", trailing, false, FrameGrads, "trailing"},
		{"control", AppendFrame(nil, Frame{Type: FrameBye}), false, FrameBye, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst, _ := model.NewGradientsFor(cfg)
			rx := newGradReader(bytes.NewReader(tc.frame), FrameGrads, dst)
			f, contribs, _, err := rx.next()
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %v, want one containing %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if streamed := rx.scratch == nil; streamed != tc.streamed {
				t.Fatalf("streamed = %v, want %v", streamed, tc.streamed)
			}
			if f.Type != tc.typ {
				t.Fatalf("frame type %d, want %d", f.Type, tc.typ)
			}
			if tc.typ == FrameGrads && (contribs != 2 || f.Step != 4 || !gradientsEqual(src, dst)) {
				t.Fatalf("decoded contribs %d step %d, payload equal %v", contribs, f.Step, gradientsEqual(src, dst))
			}
		})
	}
}

// TestTCPV1GradientFrame: a worker that speaks frame v1 still gets its
// dense contribution merged and broadcast back.
func TestTCPV1GradientFrame(t *testing.T) {
	cfg := testCfg()
	c := startTestCoordinator(t, cfg, CoordinatorOptions{ExpectWorkers: 1})
	conn := rawHandshake(t, c.Addr().String(), cfg)
	src, _ := model.NewGradientsFor(cfg)
	fillGradients(src, 13)
	if _, err := writeDense(conn, nil, Frame{Ver: 1, Type: FrameGrads}, 3, tensorsOf(src)); err != nil {
		t.Fatal(err)
	}
	f, _, err := ReadFrame(conn, nil, MaxFrameBody)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := model.NewGradientsFor(cfg)
	if f.Type != FrameMerged || binary.BigEndian.Uint32(f.Body) != 3 {
		t.Fatalf("merged frame: %+v", f)
	}
	if err := decodeGradients(f.Body[4:], got); err != nil {
		t.Fatal(err)
	}
	if !gradientsEqual(src, got) {
		t.Fatal("v1 contribution not merged bit for bit")
	}
	writeFrame(conn, nil, Frame{Ver: 1, Type: FrameBye})
	if err := waitErr(t, c); err != nil {
		t.Fatalf("session: %v", err)
	}
}

// TestTCPStepAllocBound: a warm dense TCP step, coordinator and worker
// together, allocates far less than one copy of the gradients — no
// per-step frame, body or decode buffer of the payload's size — and the
// worker keeps no payload-sized buffer between steps.
func TestTCPStepAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg := model.Config{InputSize: 64, Hidden: 192, Layers: 2, SeqLen: 4, Batch: 2, OutSize: 2, Loss: model.SingleLoss}
	c := startTestCoordinator(t, cfg, CoordinatorOptions{ExpectWorkers: 1})
	w := dialTestWorker(t, c.Addr().String(), cfg, WorkerOptions{})
	g, _ := model.NewGradientsFor(cfg)
	fillGradients(g, 5)
	if d := denseBytes(tensorsOf(g)); d < 1<<20 {
		t.Fatalf("geometry too small to show a payload copy: %d bytes", d)
	}
	step := func() {
		if _, _, err := w.Reduce([]*model.Gradients{g}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		step()
	}
	const steps = 8
	before := totalAlloc()
	for i := 0; i < steps; i++ {
		step()
	}
	if per := (totalAlloc() - before) / steps; per > 1<<20 {
		t.Fatalf("warm step allocated %d bytes across both sides, bound 1 MB", per)
	}
	// Nor does either side keep a frame-sized buffer between steps: the
	// dense frames never reached the buffered path.
	if cap(w.rx.scratch) != 0 || cap(w.head) > 256 {
		t.Fatalf("worker holds a %d-byte read and a %d-byte send buffer", cap(w.rx.scratch), cap(w.head))
	}
}

// TestWorkerStreamFaultCloses: on the worker side a merged frame whose
// count word breaks partway through the tensors fails Reduce and
// closes the connection, since the stream cannot be re-framed.
func TestWorkerStreamFaultCloses(t *testing.T) {
	cfg := testCfg()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	merged, _ := model.NewGradientsFor(cfg)
	fillGradients(merged, 2)
	var buf bytes.Buffer
	writeDense(&buf, nil, Frame{Type: FrameMerged}, 1, tensorsOf(merged))
	bad := buf.Bytes()
	bad[countWordAt(merged, len(tensorsOf(merged))/2)] ^= 0x80
	var wg sync.WaitGroup
	wg.Add(1)
	served := make(chan net.Conn, 1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			served <- nil
			return
		}
		var body [8]byte
		binary.BigEndian.PutUint32(body[4:], 1)
		if _, _, err := ReadFrame(conn, nil, helloBody); err == nil {
			writeFrame(conn, nil, Frame{Type: FrameWelcome, Body: body[:]})
		}
		served <- conn
		ReadFrame(conn, nil, MaxFrameBody) // the upload
		conn.Write(bad)
	}()
	w := dialTestWorker(t, ln.Addr().String(), cfg, WorkerOptions{})
	conn := <-served
	if conn == nil {
		t.Fatal("fake coordinator did not accept")
	}
	defer conn.Close()
	g, _ := model.NewGradientsFor(cfg)
	if _, _, err := w.Reduce([]*model.Gradients{g}); err == nil || !strings.Contains(err.Error(), "dense tensor count") {
		t.Fatalf("Reduce error %v, want a dense tensor count error", err)
	}
	wg.Wait()
	requireClosed(t, conn)
	if _, _, err := w.Reduce([]*model.Gradients{g}); err == nil {
		t.Fatal("Reduce succeeded on a worker whose stream broke")
	}
}
