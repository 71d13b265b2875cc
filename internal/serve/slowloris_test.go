package serve

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestServeClosesSlowHeaderConnection: a client that opens a connection
// and never finishes its request headers (a slowloris) must have the
// connection closed once readHeaderTimeout passes, instead of holding
// it for as long as it keeps trickling.
func TestServeClosesSlowHeaderConnection(t *testing.T) {
	prevHeader, prevIdle := readHeaderTimeout, idleTimeout
	readHeaderTimeout, idleTimeout = 100*time.Millisecond, 100*time.Millisecond
	defer func() { readHeaderTimeout, idleTimeout = prevHeader, prevIdle }()

	s := New(testNet(t), Options{MaxBatch: 4, Window: time.Millisecond})
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/infer HTTP/1.1\r\nHost: replica\r\n"); err != nil {
		t.Fatal(err)
	}
	// Wait far longer than the header timeout: the server must hang up
	// (EOF or reset), not leave the read to hit this deadline.
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("partial-header connection still open after %v", time.Since(start))
	}
}
