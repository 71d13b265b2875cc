package rtrace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// DumpTo writes a human-readable flight-recorder dump: every recorded
// trace as an indented span tree, newest root first. This is the
// SIGQUIT and panic-path rendering — terse enough for a terminal,
// complete enough to reconstruct what the process was doing. The dump
// is rendered first and written in one call, so it reaches w whole:
// log lines written to the same stderr cannot split it, and a reader
// never sees the header without the spans.
func (t *Tracer) DumpTo(w io.Writer) {
	var buf bytes.Buffer
	t.render(&buf)
	w.Write(buf.Bytes())
}

func (t *Tracer) render(w io.Writer) {
	if t == nil {
		fmt.Fprintln(w, "rtrace: tracing disabled")
		return
	}
	spans := t.Spans()
	fmt.Fprintf(w, "=== rtrace flight recorder (process %q, %d spans, %d dropped) ===\n",
		t.Process(), len(spans), t.Dropped())
	byTrace := make(map[TraceID][]SpanData)
	for _, sd := range spans {
		byTrace[sd.TraceID] = append(byTrace[sd.TraceID], sd)
	}
	ids := make([]TraceID, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		return pickRoot(byTrace[ids[i]]).Start.After(pickRoot(byTrace[ids[j]]).Start)
	})
	for _, id := range ids {
		group := byTrace[id]
		wire := make([]WireSpan, 0, len(group))
		for _, sd := range group {
			wire = append(wire, sd.Wire())
		}
		fmt.Fprintf(w, "trace %s (%d spans)\n", id, len(group))
		for _, n := range Assemble(wire) {
			dumpNode(w, n, 1)
		}
	}
}

func dumpNode(w io.Writer, n *Node, depth int) {
	for i := 0; i < depth; i++ {
		io.WriteString(w, "  ")
	}
	fmt.Fprintf(w, "%s %.3fms", n.Name, n.DurationMs)
	if n.Process != "" {
		fmt.Fprintf(w, " [%s]", n.Process)
	}
	if n.Error != "" {
		fmt.Fprintf(w, " ERROR=%q", n.Error)
	}
	for _, ev := range n.Events {
		fmt.Fprintf(w, " !%s", ev.Name)
	}
	fmt.Fprintln(w)
	for _, c := range n.Children {
		dumpNode(w, c, depth+1)
	}
}

// DumpOnSignal installs a goroutine that writes DumpTo(w) each time the
// process receives SIGQUIT, and returns a stop function. The Go
// runtime's own SIGQUIT stack dump is suppressed while installed
// (signal.Notify takes ownership); pair the flight-recorder dump with
// -pprof for goroutine stacks.
func (t *Tracer) DumpOnSignal(w io.Writer) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
				t.DumpTo(w)
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
