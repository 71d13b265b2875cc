package dist

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"etalstm/internal/model"
)

// maxTestAlloc bounds what the reader may allocate while rejecting a
// hostile frame: far below the MaxFrameBody-sized prefixes sent here.
const maxTestAlloc = 32 << 20

// totalAlloc returns the process's cumulative heap allocation.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// requireClosed waits for the peer to close conn: a read must end in
// EOF or a reset, not in the deadline.
func requireClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [64]byte
	for {
		_, err := conn.Read(b[:])
		if err == nil {
			continue
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("peer left the connection open after a bad frame")
		}
		return
	}
}

// rawHandshake joins a coordinator as a hand-rolled worker: a valid
// hello, then the welcome.
func rawHandshake(t *testing.T, addr string, cfg model.Config) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var hello [helloBody]byte
	binary.BigEndian.PutUint64(hello[:], GeomSum(cfg))
	if _, err := writeFrame(conn, nil, Frame{Type: FrameHello, Body: hello[:]}); err != nil {
		t.Fatal(err)
	}
	f, _, err := ReadFrame(conn, nil, handshakeBodyMax)
	if err != nil || f.Type != FrameWelcome {
		t.Fatalf("welcome: %+v, %v", f, err)
	}
	return conn
}

// lengthPrefix encodes a frame length prefix claiming n bytes.
func lengthPrefix(n uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, n)
}

// waitErr returns the coordinator's session error, failing the test
// when the session does not end.
func waitErr(t *testing.T, c *Coordinator) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- c.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator session did not end")
		return nil
	}
}

// TestHelloFrameCappedAtFixedSize: before the handshake, a length prefix
// within MaxFrameBody but beyond the 8-byte hello is refused without
// allocating it, the connection is dropped, and a real worker can still
// join afterwards.
func TestHelloFrameCappedAtFixedSize(t *testing.T) {
	cfg := testCfg()
	c := startTestCoordinator(t, cfg, CoordinatorOptions{ExpectWorkers: 1})
	conn, err := net.Dial("tcp", c.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	before := totalAlloc()
	if _, err := conn.Write(lengthPrefix(frameHeaderV2 + MaxFrameBody)); err != nil {
		t.Fatal(err)
	}
	requireClosed(t, conn)
	if d := totalAlloc() - before; d > maxTestAlloc {
		t.Fatalf("hello reader allocated %d bytes for a hostile prefix", d)
	}
	w := dialTestWorker(t, c.Addr().String(), cfg, WorkerOptions{})
	if w.Total() != 1 {
		t.Fatalf("worker set %d, want 1", w.Total())
	}
}

// TestPostHandshakeFrameFaults: after the handshake, an oversized length
// prefix and a truncated frame each end the worker's session with an
// error and a closed connection, with no large allocation.
func TestPostHandshakeFrameFaults(t *testing.T) {
	cfg := testCfg()
	g, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	limit := gradBodyCap(g)
	for _, tc := range []struct {
		name, want string
		send       func(conn net.Conn)
	}{
		{"oversized", "frame length", func(conn net.Conn) {
			conn.Write(lengthPrefix(frameHeaderV2 + MaxFrameBody))
		}},
		{"just-over-geometry", "frame length", func(conn net.Conn) {
			conn.Write(lengthPrefix(uint32(frameHeaderV2 + limit + 1)))
		}},
		{"truncated", "frame body", func(conn net.Conn) {
			conn.Write(append(lengthPrefix(frameHeaderV2+64), make([]byte, 10)...))
			conn.(*net.TCPConn).CloseWrite()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := startTestCoordinator(t, cfg, CoordinatorOptions{ExpectWorkers: 1})
			conn := rawHandshake(t, c.Addr().String(), cfg)
			before := totalAlloc()
			tc.send(conn)
			requireClosed(t, conn)
			if d := totalAlloc() - before; d > maxTestAlloc {
				t.Fatalf("reader allocated %d bytes", d)
			}
			if err := waitErr(t, c); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("session error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestWorkerRejectsOversizedMerged: the worker side applies the same
// geometry cap to the merged broadcast — Reduce fails and the worker
// closes its connection.
func TestWorkerRejectsOversizedMerged(t *testing.T) {
	cfg := testCfg()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan net.Conn, 1)
	go func() {
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
	}()
	w := dialTestWorker(t, ln.Addr().String(), cfg, WorkerOptions{})
	conn := <-served
	if conn == nil {
		t.Fatal("fake coordinator did not accept")
	}
	defer conn.Close()
	go func() {
		// Swallow the upload, then answer with a hostile prefix.
		ReadFrame(conn, nil, MaxFrameBody)
		conn.Write(lengthPrefix(frameHeaderV2 + MaxFrameBody))
	}()
	g, err := model.NewGradientsFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A reader that accepted the prefix would wait for its body forever.
	w.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	before := totalAlloc()
	if _, _, err := w.Reduce([]*model.Gradients{g}); err == nil || !strings.Contains(err.Error(), "frame length") {
		t.Fatalf("Reduce error %v, want a frame length error", err)
	}
	if d := totalAlloc() - before; d > maxTestAlloc {
		t.Fatalf("worker allocated %d bytes", d)
	}
	requireClosed(t, conn)
}
