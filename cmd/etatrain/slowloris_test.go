package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestMetricsClosesSlowHeaderConnection: the metrics listener must hang
// up on a client that never finishes its request headers.
func TestMetricsClosesSlowHeaderConnection(t *testing.T) {
	prevHeader, prevIdle := readHeaderTimeout, idleTimeout
	readHeaderTimeout, idleTimeout = 100*time.Millisecond, 100*time.Millisecond
	defer func() { readHeaderTimeout, idleTimeout = prevHeader, prevIdle }()

	var out bytes.Buffer
	stop, err := serveMetrics("127.0.0.1:0", nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	addr := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(out.String()), "metrics: http://"), "/metrics")

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: trainer\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("partial-header connection still open after %v", time.Since(start))
	}
}
