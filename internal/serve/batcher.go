package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"etalstm/internal/model"
	"etalstm/internal/obs"
	"etalstm/internal/rtrace"
	"etalstm/internal/tensor"
)

// Submission failure modes the HTTP layer maps to status codes.
var (
	// ErrQueueFull is returned when the bounded admission queue is at
	// capacity — the load-shedding signal (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrClosed is returned for submissions after drain has begun
	// (HTTP 503). Requests already admitted still complete.
	ErrClosed = errors.New("serve: server draining")
)

// pending is one admitted request waiting for (or undergoing) a
// batched sweep.
type pending struct {
	seq  model.InferSeq
	ctx  context.Context
	done chan outcome // buffered(1): the worker never blocks delivering
	enq  time.Time
}

type outcome struct {
	out model.InferOut
	err error
}

// pendingPool recycles pending structs (and their one-slot done
// channels) across submissions — two allocations per request otherwise.
// Only requests whose outcome was received go back: a canceled request
// may still get a late buffered delivery from the worker, so its
// channel can never be reused.
var pendingPool = sync.Pool{
	New: func() any { return &pending{done: make(chan outcome, 1)} },
}

// batcher coalesces concurrent submissions into dense micro-batches.
//
// State machine (DESIGN.md §9): requests are admitted into a bounded
// queue (`in`); a single collector goroutine accumulates them into the
// forming batch and flushes it to the worker pool when either (a) the
// batch reaches MaxBatch, or (b) Window has elapsed since the batch's
// first request arrived. Each worker owns a private tensor.Workspace
// and runs the flushed group through one Network.InferBatch sweep —
// the weights are shared read-only, so the pool serves one checkpoint
// without cloning it.
type batcher struct {
	net  *model.Network
	opts Options
	m    *metrics

	// mu guards closed and makes Submit's send race-free against
	// close(in): sends happen under RLock, drain flips closed under the
	// write lock, so no sender can be in flight when the channel closes.
	mu     sync.RWMutex
	closed bool
	in     chan *pending

	work chan []*pending
	wg   sync.WaitGroup // collector + workers
}

func newBatcher(net *model.Network, opts Options, m *metrics) *batcher {
	b := &batcher{
		net:  net,
		opts: opts,
		m:    m,
		in:   make(chan *pending, opts.QueueCap),
		work: make(chan []*pending),
	}
	b.wg.Add(1)
	go b.collect()
	for i := 0; i < opts.Workers; i++ {
		b.wg.Add(1)
		go b.worker()
	}
	return b
}

// submit admits one request and blocks until its batch completes or ctx
// is done. A request canceled while still queued is skipped by the
// worker (it never joins a sweep); the submitter gets ctx.Err().
func (b *batcher) submit(ctx context.Context, seq model.InferSeq) (model.InferOut, error) {
	p := pendingPool.Get().(*pending)
	p.seq, p.ctx, p.enq = seq, ctx, time.Now()
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return model.InferOut{}, ErrClosed
	}
	select {
	case b.in <- p:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		b.m.rejected.Add(1)
		return model.InferOut{}, ErrQueueFull
	}
	b.m.submitted.Add(1)
	select {
	case o := <-p.done:
		if o.err == nil {
			b.m.completed.Add(1)
			// The request's trace id rides the latency observation as an
			// exemplar, so the histogram's tail can name a concrete trace.
			ex := ""
			if sp := rtrace.FromContext(ctx); sp != nil {
				ex = sp.TraceID().String()
			}
			b.m.observeLatency(time.Since(p.enq), ex)
		} else {
			b.m.failed.Add(1)
		}
		p.seq, p.ctx = model.InferSeq{}, nil
		pendingPool.Put(p)
		return o.out, o.err
	case <-ctx.Done():
		b.m.canceled.Add(1)
		return model.InferOut{}, ctx.Err()
	}
}

// depth reports the admitted-but-uncollected queue length.
func (b *batcher) depth() int { return len(b.in) }

// collect is the single goroutine that forms micro-batches: flush on
// size or on the window deadline measured from the batch's first
// member. It exits (flushing the final partial batch) when drain closes
// the admission queue.
func (b *batcher) collect() {
	defer b.wg.Done()
	defer close(b.work)
	var group []*pending
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	flush := func() {
		if armed && !timer.Stop() {
			// The timer fired concurrently with a size-based flush;
			// drain the stale tick so the next Reset starts clean.
			<-timer.C
		}
		armed = false
		if len(group) > 0 {
			b.work <- group
			group = nil
		}
	}
	for {
		if len(group) == 0 {
			p, ok := <-b.in
			if !ok {
				return
			}
			group = append(group, p)
			if len(group) >= b.opts.MaxBatch {
				flush()
				continue
			}
			timer.Reset(b.opts.Window)
			armed = true
			continue
		}
		select {
		case p, ok := <-b.in:
			if !ok {
				flush()
				return
			}
			group = append(group, p)
			if len(group) >= b.opts.MaxBatch {
				flush()
			}
		case <-timer.C:
			armed = false
			flush()
		}
	}
}

// worker runs flushed groups through batched sweeps. Each worker owns
// its workspace arena; the network weights are only read. With tracing
// on, the worker also owns a phase recorder riding the workspace — its
// snapshot deltas become each sweep span's FW phase children.
func (b *batcher) worker() {
	defer b.wg.Done()
	ws := tensor.NewWorkspace()
	if b.opts.Tracer != nil {
		ws.SetRecorder(obs.NewRecorder())
	}
	for group := range b.work {
		b.runGroup(ws, group)
	}
}

func (b *batcher) runGroup(ws *tensor.Workspace, group []*pending) {
	// Requests canceled while queued drop out here, before the sweep.
	live := make([]*pending, 0, len(group))
	for _, p := range group {
		if p.ctx.Err() != nil {
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	b.m.observeBatch(len(live))
	var sweep *rtrace.Span
	var copies []*rtrace.Span
	if b.opts.Tracer != nil {
		sweep, copies = openSweepSpans(live)
	}
	var before obs.PhaseSnapshot
	rec := ws.Recorder()
	if sweep != nil {
		before = rec.Snapshot()
	}
	sweepStart := time.Now()
	outs, err := b.infer(ws, live)
	if sweep != nil {
		phases := rec.Snapshot().Delta(before)
		for _, sp := range append(copies, sweep) {
			rtrace.FoldPhases(sp, sweepStart, phases)
			sp.SetError(err)
			sp.Finish()
		}
	}
	if err != nil {
		// A sweep only fails by panicking; dump the flight recorder so
		// the traces leading up to the poisoned batch survive the report.
		b.opts.Log.WithTrace(traceIDOf(sweep)).Error("serve: sweep failed",
			"err", err, "batch", len(live))
		if b.opts.Tracer != nil {
			w := b.opts.TraceDumpWriter
			if w == nil {
				w = os.Stderr
			}
			b.opts.Tracer.DumpTo(w)
		}
	}
	for i, p := range live {
		if err != nil {
			p.done <- outcome{err: err}
		} else {
			p.done <- outcome{out: outs[i]}
		}
	}
}

// openSweepSpans opens the serve.sweep spans of one batch: the shared
// sweep span and its per-rider copies. Head sampling keeps or drops
// each rider's trace on its own, so a sweep recorded under one rider
// only would be missing from every other kept trace whenever that one
// rider is dropped. The shared span is therefore a child of the first
// sampled rider (of the first traced one when none is sampled). Every
// other sampled rider gets its own serve.sweep copy, which receives the
// same phase children; every other unsampled rider gets a "sweep" event
// naming the shared span. sweep is nil when no rider is traced.
func openSweepSpans(live []*pending) (sweep *rtrace.Span, copies []*rtrace.Span) {
	var riders []*rtrace.Span
	primary := -1
	for _, p := range live {
		sp := rtrace.FromContext(p.ctx)
		if sp == nil {
			continue
		}
		if primary < 0 && sp.Sampled() {
			primary = len(riders)
		}
		riders = append(riders, sp)
	}
	if len(riders) == 0 {
		return nil, nil
	}
	if primary < 0 {
		primary = 0
	}
	batch := strconv.Itoa(len(live))
	sweep = riders[primary].Child("serve.sweep")
	sweep.Attr("batch_size", batch)
	shared := sweep.SpanID().String()
	for i, sp := range riders {
		if i == primary {
			continue
		}
		if !sp.Sampled() {
			sp.Event("sweep", "span_id", shared)
			continue
		}
		c := sp.Child("serve.sweep")
		c.Attr("batch_size", batch)
		c.Attr("shared_span_id", shared)
		copies = append(copies, c)
	}
	return sweep, copies
}

// traceIDOf renders a span's trace id, "" on nil.
func traceIDOf(sp *rtrace.Span) string {
	if sp == nil {
		return ""
	}
	return sp.TraceID().String()
}

// infer runs one batched sweep with panic isolation: a poisoned request
// (state corrupted to a shape the kernels reject, a bug in the sweep)
// fails its group with an error instead of crashing the server, and the
// worker's arena is reset because a mid-kernel panic can strand or
// alias its buffers.
func (b *batcher) infer(ws *tensor.Workspace, live []*pending) (outs []model.InferOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			ws.Reset()
			err = fmt.Errorf("serve: inference panic: %v", r)
		}
	}()
	seqs := make([]model.InferSeq, len(live))
	for i, p := range live {
		seqs[i] = p.seq
	}
	return b.net.InferBatch(ws, seqs)
}

// drain stops admission and waits (bounded by ctx) for every already
// admitted request to complete. It is idempotent; only the first call
// closes the queue.
func (b *batcher) drain(ctx context.Context) error {
	b.mu.Lock()
	wasClosed := b.closed
	b.closed = true
	b.mu.Unlock()
	if !wasClosed {
		close(b.in)
	}
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}
