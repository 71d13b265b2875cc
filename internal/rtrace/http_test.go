package rtrace

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

// newPipe gives the signal test an in-memory reader/writer pair with
// read deadlines.
func newPipe() (net.Conn, net.Conn, error) {
	pr, pw := net.Pipe()
	return pr, pw, nil
}

// buildTrace records a three-span trace and returns its id.
func buildTrace(t *testing.T, tr *Tracer) TraceID {
	t.Helper()
	root := tr.StartSpan("router.request")
	root.Attr("path", "/v1/infer")
	child := root.Child("serve.request")
	child.Event("enqueue")
	sweep := child.Child("serve.sweep")
	sweep.Finish()
	child.Finish()
	root.Finish()
	return root.TraceID()
}

func newMux(tr *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	h := tr.Handler()
	mux.Handle("GET /debug/traces", h)
	mux.Handle("GET /debug/traces/{id}", h)
	return mux
}

func TestHandlerListAndGet(t *testing.T) {
	tr := New(Options{Process: "replica-0"})
	tid := buildTrace(t, tr)
	mux := newMux(tr)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("list status %d", rec.Code)
	}
	var list ListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Process != "replica-0" || len(list.Traces) != 1 {
		t.Fatalf("list: %+v", list)
	}
	if list.Traces[0].TraceID != tid.String() || list.Traces[0].Spans != 3 {
		t.Fatalf("summary: %+v", list.Traces[0])
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+tid.String(), nil))
	if rec.Code != 200 {
		t.Fatalf("get status %d: %s", rec.Code, rec.Body)
	}
	var tresp TraceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tresp); err != nil {
		t.Fatal(err)
	}
	if len(tresp.Spans) != 3 || len(tresp.Tree) != 1 {
		t.Fatalf("trace: %d spans %d roots", len(tresp.Spans), len(tresp.Tree))
	}
	root := tresp.Tree[0]
	if root.Name != "router.request" || root.Attrs["path"] != "/v1/infer" {
		t.Fatalf("root: %+v", root.WireSpan)
	}
	if len(root.Children) != 1 || root.Children[0].Name != "serve.request" {
		t.Fatalf("tree shape: %+v", root.Children)
	}
	if len(root.Children[0].Children) != 1 || root.Children[0].Children[0].Name != "serve.sweep" {
		t.Fatal("sweep not nested under request")
	}
	if len(root.Children[0].Events) != 1 || root.Children[0].Events[0].Name != "enqueue" {
		t.Fatalf("events: %+v", root.Children[0].Events)
	}
}

func TestHandlerErrors(t *testing.T) {
	tr := New(Options{})
	mux := newMux(tr)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/zzzz", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed id: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	tid, _ := NewIDs()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+tid.String(), nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", rec.Code)
	}
}

func TestAssembleMergesProcessesAndOrphans(t *testing.T) {
	// Router and replica each contribute spans of one trace; the replica
	// span's parent (the router span) exists, a second replica span's
	// parent does not — it must surface as a root, not vanish.
	tid, _ := NewIDs()
	mk := func(name, span, parent, proc string, at int64) WireSpan {
		return WireSpan{
			TraceID: tid.String(), SpanID: span, Parent: parent,
			Process: proc, Name: name, Start: time.Unix(0, at),
		}
	}
	spans := []WireSpan{
		mk("replica.request", "bbbbbbbbbbbbbbbb", "aaaaaaaaaaaaaaaa", "replica-0", 2),
		mk("router.request", "aaaaaaaaaaaaaaaa", "", "router", 1),
		mk("orphan", "cccccccccccccccc", "dddddddddddddddd", "replica-1", 3),
		mk("router.request", "aaaaaaaaaaaaaaaa", "", "router", 1), // duplicate merged away
	}
	roots := Assemble(spans)
	if len(roots) != 2 {
		t.Fatalf("want 2 roots, got %d", len(roots))
	}
	if roots[0].Name != "router.request" || roots[1].Name != "orphan" {
		t.Fatalf("roots: %q %q", roots[0].Name, roots[1].Name)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Process != "replica-0" {
		t.Fatalf("cross-process child lost: %+v", roots[0].Children)
	}
}

func TestDumpTo(t *testing.T) {
	var nilTr *Tracer
	var sb strings.Builder
	nilTr.DumpTo(&sb)
	if !strings.Contains(sb.String(), "disabled") {
		t.Fatalf("nil dump: %q", sb.String())
	}
	tr := New(Options{Process: "replica-1"})
	root := tr.StartSpan("serve.request")
	sweep := root.Child("serve.sweep")
	sweep.Event("shed")
	sweep.FinishErr(errors.New("poisoned"))
	root.Finish()
	sb.Reset()
	tr.DumpTo(&sb)
	out := sb.String()
	for _, want := range []string{
		"rtrace flight recorder", `process "replica-1"`, "2 spans",
		"trace " + root.TraceID().String(),
		"serve.request", "serve.sweep", `ERROR="poisoned"`, "!shed",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	// Child indented one level deeper than root.
	if !strings.Contains(out, "    serve.sweep") {
		t.Fatalf("sweep not indented:\n%s", out)
	}
	// One write: whoever reads the other end of a pipe never sees the
	// header without the spans.
	var wc writeCounter
	tr.DumpTo(&wc)
	if wc.writes != 1 {
		t.Fatalf("dump took %d writes, want 1", wc.writes)
	}
}

type writeCounter struct{ writes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}

func TestDumpOnSignal(t *testing.T) {
	tr := New(Options{Process: "sig"})
	tr.StartSpan("s").Finish()
	pr, pw, err := newPipe()
	if err != nil {
		t.Fatal(err)
	}
	stop := tr.DumpOnSignal(pw)
	defer stop()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	pr.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := pr.Read(buf)
	if err != nil {
		t.Fatalf("no dump after SIGQUIT: %v", err)
	}
	if !strings.Contains(string(buf[:n]), "rtrace flight recorder") {
		t.Fatalf("dump content: %q", buf[:n])
	}
}
