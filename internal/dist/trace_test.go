package dist

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"etalstm/internal/model"
	"etalstm/internal/rtrace"
)

// TestFrameVersionCompat pins the wire compatibility contract: v1
// frames (no trace context) still decode, v2 frames round-trip their
// 25-byte trace context, and a frame decoded at either version
// re-encodes to its exact original bytes.
func TestFrameVersionCompat(t *testing.T) {
	// A hand-built v1 frame, as an old peer would emit it.
	var v1 []byte
	body := []byte("payload")
	v1 = binary.BigEndian.AppendUint32(v1, uint32(frameHeader+len(body)))
	v1 = append(v1, 1, byte(FrameGrads))
	v1 = binary.BigEndian.AppendUint32(v1, 7)
	v1 = append(v1, body...)

	f, n, err := DecodeFrame(v1)
	if err != nil {
		t.Fatalf("v1 frame rejected: %v", err)
	}
	if n != len(v1) {
		t.Fatalf("v1 consumed %d of %d bytes", n, len(v1))
	}
	if f.Ver != 1 || f.Type != FrameGrads || f.Step != 7 || !bytes.Equal(f.Body, body) {
		t.Fatalf("v1 decode: %+v", f)
	}
	if f.Traced() || f.Sampled() {
		t.Fatalf("v1 frame must carry a zero trace context: %+v", f)
	}
	if re := AppendFrame(nil, f); !bytes.Equal(re, v1) {
		t.Fatalf("v1 re-encode mismatch:\n got %x\nwant %x", re, v1)
	}

	// A v2 frame with a trace context round-trips it.
	tid, sid := rtrace.NewIDs()
	want := Frame{Type: FrameMerged, Step: 9, TraceID: tid, SpanID: sid, Flags: FlagSampled, Body: []byte{0, 0, 0, 2}}
	enc := AppendFrame(nil, want)
	got, n, err := DecodeFrame(enc)
	if err != nil {
		t.Fatalf("v2 frame rejected: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("v2 consumed %d of %d bytes", n, len(enc))
	}
	if got.Ver != FrameVersion || got.TraceID != tid || got.SpanID != sid || !got.Sampled() || !got.Traced() {
		t.Fatalf("v2 trace context lost: %+v", got)
	}
	if !bytes.Equal(got.Body, want.Body) || got.Step != want.Step || got.Type != want.Type {
		t.Fatalf("v2 decode: %+v", got)
	}
	if re := AppendFrame(nil, got); !bytes.Equal(re, enc) {
		t.Fatalf("v2 re-encode mismatch")
	}

	// The streaming reader agrees on both versions.
	stream := append(append([]byte(nil), v1...), enc...)
	r := bytes.NewReader(stream)
	f1, scratch, err := ReadFrame(r, nil, MaxFrameBody)
	if err != nil || f1.Ver != 1 || f1.Traced() {
		t.Fatalf("ReadFrame v1: %+v err=%v", f1, err)
	}
	f2, _, err := ReadFrame(r, scratch, MaxFrameBody)
	if err != nil || f2.TraceID != tid || !f2.Sampled() {
		t.Fatalf("ReadFrame v2: %+v err=%v", f2, err)
	}

	// A v2 frame whose length cannot hold the trace context is rejected.
	short := []byte{0, 0, 0, 6, 2, 1, 0, 0, 0, 0}
	if _, _, err := DecodeFrame(short); err == nil {
		t.Fatal("short v2 frame accepted")
	}
}

// TestTCPStepTrace runs a 2-worker merge session with one flight
// recorder per process role and checks the acceptance contract: a
// single distributed optimizer step resolves to one trace — the
// coordinator's "dist.step" span at the root, its "dist.merge" child,
// and both workers' "dist.upload" spans re-parented onto it via the
// merged broadcast's trace context. The workers' own "train.step"
// spans (installed through SetStepSpan) adopt the same trace id, so
// the whole local step rides along.
func TestTCPStepTrace(t *testing.T) {
	cfg := testCfg()
	const workers = 2
	const steps = 2
	coordTr := rtrace.New(rtrace.Options{Process: "coordinator"})
	workerTrs := []*rtrace.Tracer{
		rtrace.New(rtrace.Options{Process: "worker-0"}),
		rtrace.New(rtrace.Options{Process: "worker-1"}),
	}
	c := startTestCoordinator(t, cfg, CoordinatorOptions{ExpectWorkers: workers, Tracer: coordTr})

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := dialTestWorker(t, c.Addr().String(), cfg, WorkerOptions{Tracer: workerTrs[i]})
			for s := 0; s < steps; s++ {
				step := workerTrs[i].StartSpan("train.step")
				w.SetStepSpan(step)
				g, err := model.NewGradientsFor(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				fillGradients(g, uint64(10*w.ID()+s+1))
				if _, _, err := w.Reduce([]*model.Gradients{g}); err != nil {
					t.Errorf("worker %d step %d: %v", w.ID(), s, err)
					return
				}
				step.Finish()
			}
			w.Close()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}

	// Locate the coordinator's step-0 span.
	var root rtrace.SpanData
	found := false
	for _, sd := range coordTr.Spans() {
		if sd.Name != "dist.step" {
			continue
		}
		for _, a := range sd.Attrs {
			if a.Key == "step" && a.Value == "0" {
				root, found = sd, true
			}
		}
	}
	if !found {
		t.Fatal("coordinator recorded no dist.step span for step 0")
	}
	uploads := 0
	for _, ev := range root.Events {
		if ev.Name == "upload" {
			uploads++
		}
	}
	if uploads != workers {
		t.Fatalf("step span has %d upload events, want %d", uploads, workers)
	}

	// Gather every process's spans for that trace and assemble one tree.
	var spans []rtrace.WireSpan
	for _, sd := range coordTr.Trace(root.TraceID) {
		spans = append(spans, sd.Wire())
	}
	for i, tr := range workerTrs {
		group := tr.Trace(root.TraceID)
		var upload, local bool
		for _, sd := range group {
			spans = append(spans, sd.Wire())
			switch sd.Name {
			case "dist.upload":
				upload = true
				if sd.Parent != root.SpanID {
					t.Fatalf("worker %d upload span parent %s, want coordinator step span %s",
						i, sd.Parent, root.SpanID)
				}
			case "train.step":
				// The worker's own step span adopted the coordinator's
				// trace id when the broadcast arrived.
				local = true
			}
		}
		if !upload {
			t.Fatalf("worker %d recorded no dist.upload span in trace %s", i, root.TraceID)
		}
		if !local {
			t.Fatalf("worker %d train.step span did not join trace %s", i, root.TraceID)
		}
	}
	tree := rtrace.Assemble(spans)
	var stepNode *rtrace.Node
	for _, n := range tree {
		if n.Name == "dist.step" {
			stepNode = n
		}
	}
	if stepNode == nil {
		t.Fatalf("assembled trace has no dist.step root (roots: %d)", len(tree))
	}
	var merge, uploadKids int
	for _, ch := range stepNode.Children {
		switch ch.Name {
		case "dist.merge":
			merge++
		case "dist.upload":
			uploadKids++
		}
	}
	if merge != 1 || uploadKids != workers {
		t.Fatalf("dist.step children: %d dist.merge + %d dist.upload, want 1 + %d",
			merge, uploadKids, workers)
	}
}

// TestTCPQuorumTraceEvents reruns the bounded-staleness scenario with a
// flight recorder attached and checks the scheduling decisions appear
// as span events: a partial-quorum admission records "quorum-admit"
// with the straggler wait, and the straggler's catch-up contribution
// records "late-fold" on the step it folded into.
func TestTCPQuorumTraceEvents(t *testing.T) {
	cfg := testCfg()
	const workers = 3
	const steps = 4
	coordTr := rtrace.New(rtrace.Options{Process: "coordinator"})
	c := startTestCoordinator(t, cfg, CoordinatorOptions{
		ExpectWorkers: workers,
		Quorum:        2,
		Deadline:      30 * time.Millisecond,
		Tracer:        coordTr,
	})

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := dialTestWorker(t, c.Addr().String(), cfg, WorkerOptions{})
			for s := 0; s < steps; s++ {
				if w.ID() == 0 && s == 1 {
					time.Sleep(300 * time.Millisecond)
				}
				g, err := model.NewGradientsFor(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				fillGradients(g, uint64(10*w.ID()+s+1))
				if _, _, err := w.Reduce([]*model.Gradients{g}); err != nil {
					t.Errorf("worker %d step %d: %v", w.ID(), s, err)
					return
				}
			}
			w.Close()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}

	var quorumAdmits, lateFolds int
	for _, sd := range coordTr.Spans() {
		if sd.Name != "dist.step" {
			continue
		}
		for _, ev := range sd.Events {
			switch ev.Name {
			case "quorum-admit":
				quorumAdmits++
				ok := false
				for _, a := range ev.Attrs {
					if a.Key == "straggler_wait_ms" {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("quorum-admit event lacks straggler_wait_ms: %+v", ev)
				}
			case "late-fold":
				lateFolds++
			}
		}
	}
	if quorumAdmits == 0 {
		t.Fatal("no quorum-admit event recorded despite a stale admission")
	}
	if int64(lateFolds) != c.LateFolds() {
		t.Fatalf("late-fold events %d, coordinator counted %d", lateFolds, c.LateFolds())
	}
}
