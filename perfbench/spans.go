package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function or seam of the program. Times are nanoseconds since
// the tracer's origin.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Key    string `json:"key"` // the step or request the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of one run in memory until the run ends. A nil
// *tracer is the untraced run: every method is a no-op.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// live is a span that has started and not yet ended.
type live struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	key    string
	start  time.Time
}

// start opens a span now.
func (t *tracer) start(name, key string, parent int64) live {
	return t.startAt(name, key, parent, time.Now())
}

// startAt opens a span that began at the given time (a request's span
// starts when it was due, not when the generator got round to it).
func (t *tracer) startAt(name, key string, parent int64, at time.Time) live {
	if t == nil {
		return live{}
	}
	return live{t: t, id: t.ids.Add(1), parent: parent, name: name, key: key, start: at}
}

// end records the span as ending now.
func (l live) end() { l.endAt(time.Now()) }

func (l live) endAt(at time.Time) {
	t := l.t
	if t == nil {
		return
	}
	s := span{ID: l.id, Parent: l.parent, Name: l.name, Key: l.key,
		Start: l.start.Sub(t.origin).Nanoseconds(), End: at.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once, and a child's time outside its parent does not count).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// row is one line of a layer breakdown: a layer's self time summed over
// the traced run.
type row struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms"`
}

// breakdown completes a layer breakdown of wall: it appends the
// "unattributed" row, wall minus every layer's self time, so the rows
// always add up to the traced wall time instead of silently dropping
// what no span covers.
func breakdown(wallNs int64, rows []row) []row {
	rest := float64(wallNs) / 1e6
	for _, r := range rows {
		rest -= r.Ms
	}
	return append(rows, row{Layer: "unattributed", Ms: rest})
}
