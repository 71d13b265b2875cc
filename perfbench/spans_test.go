package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 40) once: 30.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},
		// A child running past its parent's end counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild takes time from its own parent, not from the root.
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 30 - 10, 2: 20, 3: 20 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(append(spans, span{ID: 6, Name: "a", Start: 200, End: 205}))
	if byName["a"] != 25 {
		t.Errorf("self time of name a = %d, want 25", byName["a"])
	}
}

func TestBreakdownAddsUpToWall(t *testing.T) {
	rows := breakdown(10_000_000, []row{{"x", 4}, {"y", 3.5}})
	if len(rows) != 3 || rows[2].Layer != "unattributed" {
		t.Fatalf("rows = %+v, want x, y, unattributed", rows)
	}
	if math.Abs(rows[2].Ms-2.5) > 1e-12 {
		t.Fatalf("unattributed = %v ms, want 2.5", rows[2].Ms)
	}
	var sum float64
	for _, r := range rows {
		sum += r.Ms
	}
	if math.Abs(sum-10) > 1e-12 {
		t.Fatalf("rows sum to %v ms, want the 10 ms wall", sum)
	}
}

func TestTracerRecordsParentsAndNil(t *testing.T) {
	var off *tracer
	if sp := off.start("x", "k", 0); sp.id != 0 {
		t.Fatal("nil tracer handed out a span id")
	}
	off.start("x", "k", 0).end() // must not panic
	if off.snapshot() != nil {
		t.Fatal("nil tracer holds spans")
	}

	tr := newTracer()
	at := time.Now()
	parent := tr.startAt("p", "k", 0, at)
	child := tr.startAt("c", "k", parent.id, at)
	child.endAt(at.Add(time.Millisecond))
	parent.endAt(at.Add(3 * time.Millisecond))
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Parent != spans[1].ID || spans[1].Parent != 0 {
		t.Fatalf("spans = %+v, want the child parented to the root", spans)
	}
	if self := selfTimes(spans); self[spans[1].ID] != int64(2*time.Millisecond) {
		t.Fatalf("root self time = %d, want 2ms", self[spans[1].ID])
	}
}
