package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"time"

	"etalstm/internal/compress"
	"etalstm/internal/model"
	"etalstm/internal/obs"
	"etalstm/internal/rtrace"
	"etalstm/internal/train"
)

// The TCP transport: N worker processes train replicas and ship their
// per-step gradient contributions to one coordinator, which merges them
// in worker-id order (the same deterministic tree reduction as the
// in-process path) and broadcasts the merged set back. Every worker
// applies the identical broadcast with an identical reducer, so worker
// weights stay bitwise in lockstep — the coordinator never trains, it
// only merges.
//
// Staleness. With Quorum < ExpectWorkers the coordinator admits a step
// once Quorum contributions have arrived and stragglers have exceeded
// the wait Deadline; a straggler's contribution is never dropped — it
// folds into the next step's merge (error against the current weights
// is the one-step-staleness the bounded-divergence contract covers).
// Because the coordinator still broadcasts every merged step to every
// live worker, and each worker consumes exactly one broadcast per step,
// worker weights never fork even when contributions land late.

const defaultHandshakeTimeout = 10 * time.Second

// Handshake frame caps. A hello body is exactly the 8-byte geometry
// checksum; a worker awaiting its welcome accepts the 8-byte welcome or
// a short FrameError diagnostic. Nothing a peer sends before the
// handshake completes can make the reader allocate more.
const (
	helloBody        = 8
	handshakeBodyMax = 4096
)

// CoordinatorOptions configures a merge coordinator.
type CoordinatorOptions struct {
	// ExpectWorkers is how many workers must join before training
	// starts (required, >= 1). Welcome frames — and therefore every
	// worker's Dial return — are held until the full set has connected.
	ExpectWorkers int
	// Quorum admits a step once this many contributions have arrived
	// and the Deadline has passed for the rest (0 or >= ExpectWorkers =
	// wait for everyone; the deterministic mode).
	Quorum int
	// Deadline is how long the coordinator waits for stragglers after
	// the quorum is met (0 = 50ms). Only meaningful with a partial
	// Quorum.
	Deadline time.Duration
	// Compression, when non-nil, sparsifies the merged broadcast with
	// coordinator-side error feedback; nil broadcasts dense.
	Compression *CompressOptions
	// HandshakeTimeout bounds each joining connection's hello exchange
	// (0 = 10s).
	HandshakeTimeout time.Duration
	// Metrics overrides the obs bundle (nil = lazily bound to
	// obs.Default).
	Metrics *obs.Dist
	// Tracer overrides the flight recorder the coordinator's per-step
	// "dist.step" spans land in (nil = rtrace.Default(), which may
	// itself be nil = tracing disabled).
	Tracer *rtrace.Tracer
}

func (o CoordinatorOptions) deadline() time.Duration {
	if o.Deadline <= 0 {
		return 50 * time.Millisecond
	}
	return o.Deadline
}

func (o CoordinatorOptions) handshake() time.Duration {
	if o.HandshakeTimeout <= 0 {
		return defaultHandshakeTimeout
	}
	return o.HandshakeTimeout
}

// coordWorker is the coordinator's per-connection state. The buffer
// handshake: the reader goroutine decodes each gradient frame into buf,
// posts an event, and blocks until the collector acks that it has
// consumed the buffer — so buf never changes under the merge.
type coordWorker struct {
	id   int
	conn net.Conn
	buf  *model.Gradients
	ack  chan struct{}
}

type coordEvent struct {
	id       int
	step     uint32
	contribs int
	wire     int64 // received gradient payload bytes
	gone     bool
	err      error
	// tid/sid are the worker upload span's trace context (zero when the
	// worker traced nothing or spoke frame v1).
	tid rtrace.TraceID
	sid rtrace.SpanID
}

// Coordinator merges and broadcasts gradient steps for a set of TCP
// workers. Create one with StartCoordinator; it serves on its own
// goroutine until every worker disconnects or Close is called.
type Coordinator struct {
	ln   net.Listener
	cfg  model.Config
	opts CoordinatorOptions

	quit chan struct{} // closed by Close
	done chan struct{} // closed when serve returns
	err  error         // set before done closes

	steps       int64
	staleSteps  int64
	lateFolds   int64
	tailDropped int64
}

// StartCoordinator listens on addr and serves a merge session for
// opts.ExpectWorkers workers training cfg-shaped models. It returns as
// soon as the listener is bound (Addr reports the resolved address, so
// ":0" works for tests); the session runs on a background goroutine
// until all workers disconnect (Wait returns nil) or a fatal transport
// error occurs (Wait returns it).
func StartCoordinator(addr string, cfg model.Config, opts CoordinatorOptions) (*Coordinator, error) {
	if opts.ExpectWorkers < 1 {
		return nil, fmt.Errorf("dist: coordinator requires ExpectWorkers >= 1")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		ln: ln, cfg: cfg, opts: opts,
		quit: make(chan struct{}), done: make(chan struct{}),
	}
	go c.serve()
	return c, nil
}

// Addr returns the coordinator's bound listen address.
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// Wait blocks until the merge session ends and returns its outcome
// (nil on a clean drain — every worker disconnected).
func (c *Coordinator) Wait() error {
	<-c.done
	return c.err
}

// Close shuts the session down: the listener and every worker
// connection are closed and Wait unblocks.
func (c *Coordinator) Close() error {
	select {
	case <-c.quit:
	default:
		close(c.quit)
	}
	c.ln.Close()
	<-c.done
	return nil
}

// StaleSteps reports how many steps were admitted without every live
// worker; LateFolds how many late contributions were folded forward.
func (c *Coordinator) StaleSteps() int64 { return c.staleSteps }
func (c *Coordinator) LateFolds() int64  { return c.lateFolds }

// TailDropped reports contributions that arrived late for the session's
// final step and so had no next step to fold into — the one place
// bounded staleness can lose gradient mass, and only at termination.
func (c *Coordinator) TailDropped() int64 { return c.tailDropped }

// Steps reports the merged optimizer steps served so far.
func (c *Coordinator) Steps() int64 { return c.steps }

func (c *Coordinator) serve() {
	defer close(c.done)
	workers, err := c.acceptWorkers()
	if err != nil {
		c.err = err
		return
	}
	defer func() {
		for _, w := range workers {
			w.conn.Close()
		}
	}()
	c.err = c.mergeLoop(workers)
}

// acceptWorkers admits ExpectWorkers connections: each must open with a
// hello frame whose geometry checksum matches the coordinator's model
// config. Only once the full set has joined does every worker receive
// its welcome (id, total) — the start barrier.
func (c *Coordinator) acceptWorkers() ([]*coordWorker, error) {
	var workers []*coordWorker
	geom := GeomSum(c.cfg)
	var scratch []byte
	for len(workers) < c.opts.ExpectWorkers {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.quit:
				return nil, fmt.Errorf("dist: coordinator closed while waiting for workers (%d of %d joined)",
					len(workers), c.opts.ExpectWorkers)
			default:
			}
			return nil, err
		}
		conn.SetDeadline(time.Now().Add(c.opts.handshake()))
		var f Frame
		f, scratch, err = ReadFrame(conn, scratch, helloBody)
		if err != nil || f.Type != FrameHello || len(f.Body) != helloBody {
			conn.Close()
			continue // not a worker; keep waiting
		}
		if got := binary.BigEndian.Uint64(f.Body); got != geom {
			writeFrame(conn, nil, Frame{Type: FrameError,
				Body: []byte(fmt.Sprintf("model geometry mismatch: worker %#x, coordinator %#x (check -bench/-hidden-div/-seq/-batch)", got, geom))})
			conn.Close()
			continue
		}
		conn.SetDeadline(time.Time{})
		buf, err := model.NewGradientsFor(c.cfg)
		if err != nil {
			conn.Close()
			return nil, err
		}
		workers = append(workers, &coordWorker{id: len(workers), conn: conn, buf: buf, ack: make(chan struct{}, 1)})
	}
	var wbuf []byte
	for _, w := range workers {
		var body [8]byte
		binary.BigEndian.PutUint32(body[:4], uint32(w.id))
		binary.BigEndian.PutUint32(body[4:], uint32(len(workers)))
		var err error
		if wbuf, err = writeFrame(w.conn, wbuf, Frame{Type: FrameWelcome, Body: body[:]}); err != nil {
			return nil, fmt.Errorf("dist: welcome to worker %d: %w", w.id, err)
		}
	}
	return workers, nil
}

// reader pumps one worker's frames into events, decoding gradient
// payloads into the worker's buffer and waiting for the collector's
// ack before each next read (see coordWorker).
func (c *Coordinator) reader(w *coordWorker, events chan<- coordEvent) {
	rx := newGradReader(w.conn, FrameGrads, w.buf)
	for {
		f, contribs, size, err := rx.next()
		if err == io.EOF {
			events <- coordEvent{id: w.id, gone: true}
			return
		}
		if err != nil {
			// A malformed, oversized or truncated frame leaves the
			// stream unframeable, and a payload that does not decode
			// is a faulty peer: drop the worker and report why.
			w.conn.Close()
			events <- coordEvent{id: w.id, gone: true, err: fmt.Errorf("dist: worker %d: %w", w.id, err)}
			return
		}
		switch f.Type {
		case FrameBye:
			events <- coordEvent{id: w.id, gone: true}
			return
		case FrameGrads:
			events <- coordEvent{id: w.id, step: f.Step, contribs: contribs, wire: int64(size),
				tid: f.TraceID, sid: f.SpanID}
			select {
			case <-w.ack:
			case <-c.quit:
				return
			}
		case FrameError:
			events <- coordEvent{id: w.id, gone: true, err: fmt.Errorf("dist: worker %d: %s", w.id, f.Body)}
			return
		default:
			events <- coordEvent{id: w.id, gone: true, err: fmt.Errorf("dist: worker %d: unexpected frame type %d", w.id, f.Type)}
			return
		}
	}
}

// mergeLoop is the coordinator's steady state: collect one step's
// contributions (all live workers, or quorum + deadline), merge in
// worker-id order, fold forward any late arrivals, broadcast, repeat —
// until the last worker disconnects.
func (c *Coordinator) mergeLoop(workers []*coordWorker) error {
	events := make(chan coordEvent, len(workers))
	for _, w := range workers {
		go c.reader(w, events)
	}
	ins := lazyDist(&c.opts.Metrics)
	tracer := c.opts.Tracer
	if tracer == nil {
		tracer = rtrace.Default()
	}
	byID := make(map[int]*coordWorker, len(workers))
	live := make(map[int]bool, len(workers))
	for _, w := range workers {
		byID[w.id] = w
		live[w.id] = true
	}

	late, err := model.NewGradientsFor(c.cfg)
	if err != nil {
		return err
	}
	lateN := 0
	var downFB []*compress.Feedback
	var scratch compress.Sparse
	var body, head []byte
	denseTmpl := denseBytes(tensorsOf(late))

	quorum := c.opts.Quorum
	if quorum <= 0 || quorum > c.opts.ExpectWorkers {
		quorum = c.opts.ExpectWorkers
	}

	var step uint32
	for len(live) > 0 {
		// The step span: the coordinator owns the step's trace, and its
		// context rides the merged broadcast so every worker's upload
		// span re-parents onto it (one cross-process step trace).
		sp := tracer.StartSpan("dist.step")
		sp.Attr("step", strconv.Itoa(int(step)))
		contrib := map[int]int{} // worker id -> contribution count, this step
		var stepWire, stepDense int64
		var timer *time.Timer
		var deadlineC <-chan time.Time
		var quorumAt time.Time
		stopTimer := func() {
			if timer != nil {
				timer.Stop()
				timer, deadlineC = nil, nil
			}
		}

	collect:
		for {
			// Complete when every live worker has contributed (workers
			// that contributed and then vanished keep their slot).
			pending := 0
			for id := range live {
				if _, ok := contrib[id]; !ok {
					pending++
				}
			}
			if pending == 0 {
				break
			}
			// Bounded staleness: once a partial quorum has contributed,
			// give stragglers one deadline and then admit the step
			// without them. (If deaths leave fewer live workers than the
			// quorum, the pending == 0 check above still terminates the
			// collect — no deadlock, just no early admission.)
			if deadlineC == nil && quorum < c.opts.ExpectWorkers && len(contrib) >= quorum {
				timer = time.NewTimer(c.opts.deadline())
				deadlineC = timer.C
				quorumAt = time.Now()
			}
			select {
			case ev := <-events:
				w := byID[ev.id]
				switch {
				case ev.gone:
					delete(live, ev.id)
					sp.Event("worker-gone", "worker", strconv.Itoa(ev.id))
					if ev.err != nil && c.err == nil {
						// Remember the first worker-side fault for Wait,
						// but keep draining the rest of the session.
						c.err = ev.err
					}
				case ev.step == step:
					contrib[ev.id] = ev.contribs
					stepWire += ev.wire
					stepDense += denseTmpl
					sp.Event("upload", "worker", strconv.Itoa(ev.id), "span", ev.sid.String())
				case ev.step < step:
					// A straggler's contribution for an already-admitted
					// step: fold it into this one so no mass is lost.
					late.Add(w.buf)
					lateN += ev.contribs
					c.lateFolds++
					ins.LateContribs.Inc()
					stepWire += ev.wire
					stepDense += denseTmpl
					sp.Event("late-fold", "worker", strconv.Itoa(ev.id), "from_step", strconv.Itoa(int(ev.step)))
					w.ack <- struct{}{}
				default:
					err := fmt.Errorf("dist: worker %d sent step %d while coordinator at %d", ev.id, ev.step, step)
					sp.FinishErr(err)
					return err
				}
			case <-deadlineC:
				deadlineC, timer = nil, nil
				sp.Event("quorum-admit",
					"contributed", strconv.Itoa(len(contrib)),
					"live", strconv.Itoa(len(live)),
					"straggler_wait_ms", strconv.FormatInt(time.Since(quorumAt).Milliseconds(), 10))
				break collect
			case <-c.quit:
				stopTimer()
				err := fmt.Errorf("dist: coordinator closed at step %d", step)
				sp.FinishErr(err)
				return err
			}
		}
		stopTimer()
		if len(live) == 0 && len(contrib) == 0 {
			sp.Finish()
			break
		}

		// Merge in ascending worker-id order — the same deterministic
		// tree the in-process path uses.
		msp := sp.Child("dist.merge")
		ids := make([]int, 0, len(contrib))
		for id := range contrib {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		sets := make([]*model.Gradients, 0, len(ids))
		total := 0
		for _, id := range ids {
			sets = append(sets, byID[id].buf)
			total += contrib[id]
		}
		merged := TreeReduce(sets)
		if lateN > 0 {
			merged.Add(late)
			total += lateN
			lateN = 0
			zeroGradients(late)
		}
		stale := false
		for id := range live {
			if _, ok := contrib[id]; !ok {
				stale = true
				break
			}
		}
		if stale {
			c.staleSteps++
			ins.StaleSteps.Inc()
			sp.Attr("stale", "true")
		}

		// Broadcast the identical payload to every live worker — that
		// is what keeps worker weights in lockstep. A sparse payload is
		// encoded once; a dense one is sent from the merged tensors.
		tensors := tensorsOf(merged)
		var flags byte
		if sp.Sampled() {
			flags |= FlagSampled
		}
		fr := Frame{Type: FrameMerged, Step: step, TraceID: sp.TraceID(), SpanID: sp.SpanID(), Flags: flags}
		payloadWire := denseTmpl
		if opt := c.opts.Compression; opt != nil && !opt.warm(int(step)) {
			if downFB == nil {
				downFB = feedbackFor(tensors)
			}
			body = binary.BigEndian.AppendUint32(body[:0], uint32(total))
			body, payloadWire, _ = appendSparse(body, tensors, downFB, *opt, &scratch)
			fr.Body = body
		}
		for _, w := range live2slice(byID, live) {
			var werr error
			if fr.Body != nil {
				head, werr = writeFrame(w.conn, head, fr)
			} else {
				head, werr = writeDense(w.conn, head, fr, total, tensors)
			}
			if werr != nil {
				delete(live, w.id)
				w.conn.Close()
				continue
			}
			stepWire += payloadWire
			stepDense += denseTmpl
		}
		msp.Attr("contribs", strconv.Itoa(total))
		msp.Finish()
		// Release the contributors' buffers for the next decode.
		for _, id := range ids {
			byID[id].ack <- struct{}{}
		}
		sp.Finish()

		c.steps++
		ins.Steps.Inc()
		ins.WireBytes.Add(stepWire)
		ins.DenseBytes.Add(stepDense)
		if stepWire > 0 {
			ins.Compression.Set(float64(stepDense) / float64(stepWire))
		}
		step++
	}
	// Contributions folded into `late` after the final merge have no
	// next step; surface them instead of losing them silently.
	c.tailDropped = int64(lateN)
	return c.err
}

// live2slice returns the live workers (order irrelevant; the broadcast
// payload is identical for all).
func live2slice(byID map[int]*coordWorker, live map[int]bool) []*coordWorker {
	out := make([]*coordWorker, 0, len(live))
	for id := range live {
		out = append(out, byID[id])
	}
	return out
}

// zeroGradients clears every tensor of g in place.
func zeroGradients(g *model.Gradients) {
	for _, m := range tensorsOf(g) {
		for i := range m.Data {
			m.Data[i] = 0
		}
	}
}

// WorkerOptions configures a TCP gradient-sync worker.
type WorkerOptions struct {
	// Compression, when non-nil, sparsifies the uplink contribution
	// with worker-side error feedback; nil sends dense.
	Compression *CompressOptions
	// DialTimeout bounds the connect + handshake (0 = 10s). Note the
	// handshake completes only once every expected worker has joined
	// the coordinator, so this must cover the slowest peer's arrival.
	DialTimeout time.Duration
	// Metrics overrides the obs bundle (nil = lazily bound to
	// obs.Default).
	Metrics *obs.Dist
	// Tracer overrides the flight recorder the worker's "dist.upload"
	// spans land in (nil = rtrace.Default()).
	Tracer *rtrace.Tracer
}

// Worker is the worker-process side of the TCP transport; it implements
// train.GradientSync, so a trainer plugs it in where the in-process
// tree all-reduce would run.
type Worker struct {
	conn  net.Conn
	id    int
	total int
	cfg   model.Config
	opts  WorkerOptions

	step    uint32
	recv    *model.Gradients
	rx      *gradReader
	fb      []*compress.Feedback
	scratch compress.Sparse
	body    []byte // sparse payload
	head    []byte // frame header words

	wire, dense int64
	closed      bool

	// stepSpan, when set, parents the next Reduce's upload span — the
	// trainer's per-step span (core/parallel install it via the
	// StepSpanSetter seam so the upload nests under the training step).
	stepSpan *rtrace.Span
}

// SetStepSpan parents the next Reduce's "dist.upload" span under sp —
// the seam trainers use to nest the network exchange inside their
// per-step trace. Passing nil reverts to root upload spans.
func (w *Worker) SetStepSpan(sp *rtrace.Span) { w.stepSpan = sp }

// StepSpanSetter is the optional interface a train.GradientSync
// implements when it can nest its per-step wire exchange under the
// trainer's step span.
type StepSpanSetter interface {
	SetStepSpan(sp *rtrace.Span)
}

var _ train.GradientSync = (*Worker)(nil)

// Dial connects to a coordinator serving cfg-shaped models and blocks
// until the coordinator has admitted the full worker set (the start
// barrier). The returned Worker is ready to Reduce.
func Dial(addr string, cfg model.Config, opts WorkerOptions) (*Worker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	timeout := opts.DialTimeout
	if timeout <= 0 {
		timeout = defaultHandshakeTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	var hello [8]byte
	binary.BigEndian.PutUint64(hello[:], GeomSum(cfg))
	if _, err := writeFrame(conn, nil, Frame{Type: FrameHello, Body: hello[:]}); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	br := bufio.NewReader(conn)
	f, _, err := ReadFrame(br, nil, handshakeBodyMax)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: awaiting welcome: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	switch f.Type {
	case FrameWelcome:
		if len(f.Body) != 8 {
			conn.Close()
			return nil, fmt.Errorf("dist: malformed welcome frame")
		}
	case FrameError:
		msg := string(f.Body)
		conn.Close()
		return nil, fmt.Errorf("dist: coordinator rejected worker: %s", msg)
	default:
		conn.Close()
		return nil, fmt.Errorf("dist: unexpected frame type %d during handshake", f.Type)
	}
	recv, err := model.NewGradientsFor(cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &Worker{
		conn: conn, cfg: cfg, opts: opts,
		id:    int(binary.BigEndian.Uint32(f.Body[:4])),
		total: int(binary.BigEndian.Uint32(f.Body[4:])),
		recv:  recv, rx: newGradReader(br, FrameMerged, recv),
	}, nil
}

// ID returns the coordinator-assigned worker id (0-based); Total the
// size of the admitted worker set. Useful for sharding data providers.
func (w *Worker) ID() int    { return w.id }
func (w *Worker) Total() int { return w.total }

// WireBytes / DenseBytes / Ratio report this worker's cumulative
// gradient payload traffic (both directions) and the dense-equivalent
// cost, mirroring Compressed's accounting.
func (w *Worker) WireBytes() int64  { return w.wire }
func (w *Worker) DenseBytes() int64 { return w.dense }

// Ratio returns the cumulative dense/wire payload ratio (0 before any
// step).
func (w *Worker) Ratio() float64 {
	if w.wire == 0 {
		return 0
	}
	return float64(w.dense) / float64(w.wire)
}

// Reduce implements train.GradientSync: locally tree-reduce the
// replica contributions, ship the sum to the coordinator, and return
// the broadcast merged set with its global contribution count. The
// returned set aliases the worker's receive buffer — valid until the
// next Reduce.
func (w *Worker) Reduce(local []*model.Gradients) (*model.Gradients, int, error) {
	if w.closed {
		return nil, 0, fmt.Errorf("dist: Reduce on a closed worker")
	}
	if len(local) == 0 {
		return nil, 0, fmt.Errorf("dist: Reduce requires at least one local contribution")
	}
	// The upload span: nested under the trainer's step span when one was
	// installed, a root otherwise. Its identity rides the FrameGrads
	// trace context; the merged broadcast then re-parents it onto the
	// coordinator's step trace (Adopt), so the whole local step — FW/BP
	// phases included — lands in one cross-process trace.
	tracer := w.opts.Tracer
	if tracer == nil {
		tracer = rtrace.Default()
	}
	var sp *rtrace.Span
	if w.stepSpan != nil {
		sp = w.stepSpan.Child("dist.upload")
	} else {
		sp = tracer.StartSpan("dist.upload")
	}
	sp.Attr("worker", strconv.Itoa(w.id))
	sp.Attr("step", strconv.Itoa(int(w.step)))
	sum := TreeReduce(local)
	tensors := tensorsOf(sum)
	dense := denseBytes(tensors)
	var flags byte
	if sp.Sampled() {
		flags |= FlagSampled
	}
	fr := Frame{Type: FrameGrads, Step: w.step, TraceID: sp.TraceID(), SpanID: sp.SpanID(), Flags: flags}
	upWire := dense
	var err error
	if opt := w.opts.Compression; opt != nil && !opt.warm(int(w.step)) {
		if w.fb == nil {
			w.fb = feedbackFor(tensors)
		}
		w.body = binary.BigEndian.AppendUint32(w.body[:0], uint32(len(local)))
		w.body, upWire, _ = appendSparse(w.body, tensors, w.fb, *opt, &w.scratch)
		fr.Body = w.body
		w.head, err = writeFrame(w.conn, w.head, fr)
	} else {
		w.head, err = writeDense(w.conn, w.head, fr, len(local), tensors)
	}
	if err != nil {
		err = fmt.Errorf("dist: sending step %d: %w", w.step, err)
		sp.FinishErr(err)
		return nil, 0, err
	}

	f, total, size, err := w.rx.next()
	if err != nil {
		// The stream cannot be re-framed after a bad frame, and a
		// merged payload that does not decode leaves nothing to apply:
		// close it.
		w.closed = true
		w.conn.Close()
		err = fmt.Errorf("dist: awaiting merged step %d: %w", w.step, err)
		sp.FinishErr(err)
		return nil, 0, err
	}
	switch f.Type {
	case FrameMerged:
	case FrameError:
		err = fmt.Errorf("dist: coordinator error: %s", f.Body)
		sp.FinishErr(err)
		return nil, 0, err
	default:
		err = fmt.Errorf("dist: unexpected frame type %d at step %d", f.Type, w.step)
		sp.FinishErr(err)
		return nil, 0, err
	}
	if f.Step != w.step {
		err = fmt.Errorf("dist: merged frame for step %d, expected %d", f.Step, w.step)
		sp.FinishErr(err)
		return nil, 0, err
	}
	// Re-parent onto the coordinator's step trace: the broadcast is the
	// first moment this worker learns which trace the step belongs to.
	if f.Traced() {
		sp.Adopt(f.TraceID, f.SpanID, f.Sampled())
	}
	downWire := int64(size - 4)
	w.wire += upWire + downWire
	w.dense += 2 * dense
	ins := lazyDist(&w.opts.Metrics)
	ins.WireBytes.Add(upWire + downWire)
	ins.DenseBytes.Add(2 * dense)
	ins.Steps.Inc()
	if upWire+downWire > 0 {
		ins.Compression.Set(float64(2*dense) / float64(upWire+downWire))
	}
	sp.Attr("contribs", strconv.Itoa(total))
	sp.Finish()
	w.step++
	return w.recv, total, nil
}

// Close sends a clean goodbye and closes the connection. Safe to call
// more than once.
func (w *Worker) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	writeFrame(w.conn, w.head, Frame{Type: FrameBye})
	return w.conn.Close()
}
