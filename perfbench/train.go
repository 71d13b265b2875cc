package main

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"etalstm"
	"etalstm/internal/dist"
	"etalstm/internal/persist"
)

// trainSpec is the geometry and schedule of a training workload. One
// trial builds a fresh network and trainer (the timed set-up) and trains
// a fixed number of epochs over the same batches, so every trial does
// identical arithmetic and must end on the identical loss.
type trainSpec struct {
	bench      string
	hiddenDiv  int
	maxSeq     int
	maxBatch   int
	batches    int // minibatches per epoch, over all workers
	epochs     int
	workers    int // replicas (train-eta) or TCP workers (train-sync)
	reduceSpan string
}

// inproc reports whether the workload's replicas live in one trainer and
// merge through the in-process all-reduce (train-eta), rather than being
// separate trainers exchanging gradients over TCP (train-sync).
func (s trainSpec) inproc() bool { return s.reduceSpan == "parallel.reduce" }

// train-eta: BABI-shaped long sequences (5 layers, 120 steps) scaled to
// H=32 so a trial takes a few seconds. 16 epochs of 2 steps cover MS2's
// 3 warm-up epochs and 13 skipping ones. Steps fall into three groups:
// the first epoch (MS2 calibration, replica clones), the other warm-up
// epochs, and the faster skipping epochs. With these shares (6%, 13%,
// 81%) the step-time median falls inside the skipping group and the p90
// inside the warm-up group, not on a boundary between two groups.
var etaSpec = trainSpec{
	bench: "BABI", hiddenDiv: 40, maxSeq: 120, maxBatch: 4,
	batches: 4, epochs: 16, workers: 2,
	reduceSpan: "parallel.reduce",
}

// train-sync: IMDB-shaped at H=256 with 8-step sequences and batch 4, so
// the dense gradient exchange (about 11 MB per worker-step) is a visible
// share of each step.
var syncSpec = trainSpec{
	bench: "IMDB", hiddenDiv: 8, maxSeq: 8, maxBatch: 4,
	batches: 16, epochs: 3, workers: 2,
	reduceSpan: "dist.reduce",
}

// trialOut is what one training trial measured.
type trialOut struct {
	traced bool
	setup  time.Duration
	// wall is the training wall time, set-up excluded.
	wall    time.Duration
	samples int
	clocks  []*stepClock
	stats   [][]etalstm.EpochStats // per trainer, per epoch
	phases  map[string]time.Duration
	digests []string // final weights, per trainer
	memMB   float64  // peak memory the runtime held during the trial
	plan    etalstm.Plan
	budget  int64
	// Coordinator and transport counters (train-sync).
	wireBytes                        int64
	staleSteps, lateFolds, tailDrops int64
}

// finalLoss is the mean loss of the last epoch over all trainers (equal
// shards, so the mean of shard means is the epoch mean).
func (t *trialOut) finalLoss() float64 { return t.epochLoss(len(t.stats[0]) - 1) }

func (t *trialOut) epochLoss(e int) float64 {
	var sum float64
	for _, st := range t.stats {
		sum += st[e].MeanLoss
	}
	return sum / float64(len(t.stats))
}

func (t *trialOut) steps() int {
	n := 0
	for _, c := range t.clocks {
		n += c.steps
	}
	return n
}

// phaseDelta returns after − before per phase name.
func phaseDelta(before, after []etalstm.PhaseStat) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, p := range after {
		out[p.Phase] += p.Total
	}
	for _, p := range before {
		out[p.Phase] -= p.Total
	}
	return out
}

// etaTrial trains η-LSTM as the paper defines it: Combined mode
// (MS1+MS2) with sparse BP under a quarter-of-peak memory budget, two
// in-process replicas merged by the tree all-reduce.
func etaTrial(ctx context.Context, s trainSpec, b etalstm.Benchmark, data etalstm.Provider, seed uint64, tr *tracer, name string) (*trialOut, error) {
	c := &stepClock{tr: tr, name: name, reduceSpan: s.reduceSpan}
	t0 := time.Now()
	budget := etalstm.PlanFor(b.Cfg, etalstm.Combined, 0).FullPeak / 4
	net, err := etalstm.NewNetwork(b.Cfg, seed)
	if err != nil {
		return nil, err
	}
	trn := etalstm.NewTrainer(net, etalstm.Combined, etalstm.TrainerOptions{
		Workers:        s.workers,
		SparseBackward: true,
		MemoryBudget:   budget,
		Optimizer:      timedOptimizer{inner: &etalstm.Adam{LR: 0.01}, c: c},
		Sync:           timedSync{inner: dist.Inproc{}, c: c},
		RecordPhases:   tr != nil,
	})
	plan := trn.Plan()
	out := &trialOut{traced: tr != nil, setup: time.Since(t0), plan: plan, budget: budget, clocks: []*stepClock{c}}
	if !plan.Feasible {
		return nil, fmt.Errorf("train-eta: budget %d B is infeasible for %+v", budget, b.Cfg)
	}

	p := timedProvider{inner: data, c: c}
	var stats []etalstm.EpochStats
	start := time.Now()
	for e := 0; e < s.epochs; e++ {
		var st etalstm.EpochStats
		if err := c.runEpoch(func() (err error) { st, err = trn.RunEpoch(ctx, p, e); return err }); err != nil {
			return nil, fmt.Errorf("train-eta epoch %d: %w", e, err)
		}
		stats = append(stats, st)
	}
	out.wall = time.Since(start)
	out.stats = [][]etalstm.EpochStats{stats}
	out.samples = s.epochs * data.NumBatches() * b.Cfg.Batch
	out.phases = phaseDelta(nil, trn.Phases())
	d, err := persist.Digest(net)
	if err != nil {
		return nil, err
	}
	out.digests = []string{d}
	return out, nil
}

// stridedShard is worker offset's view of the shared epoch: batch i of
// the shard is global batch i*stride+offset, so one step across the
// workers covers the batch group the in-process engine would use.
type stridedShard struct {
	inner          etalstm.Provider
	stride, offset int
}

func (p stridedShard) NumBatches() int { return p.inner.NumBatches() / p.stride }
func (p stridedShard) Batch(i int) etalstm.Batch {
	return p.inner.Batch(i*p.stride + p.offset)
}

// syncWorker is one TCP worker trainer of a train-sync trial.
type syncWorker struct {
	wk    *etalstm.WorkerSync
	net   *etalstm.Network
	trn   *etalstm.Trainer
	c     *stepClock
	stats []etalstm.EpochStats
	err   error
}

// syncTrial trains the plain dense path: a coordinator and workers in
// this process over loopback TCP, Baseline mode, full-storage BPTT,
// dense BP and dense frames, each worker on a strided shard.
func syncTrial(ctx context.Context, s trainSpec, b etalstm.Benchmark, data etalstm.Provider, seed uint64, tr *tracer, name string) (*trialOut, error) {
	t0 := time.Now()
	coord, err := etalstm.StartCoordinator("127.0.0.1:0", b.Cfg, etalstm.CoordinatorOptions{ExpectWorkers: s.workers})
	if err != nil {
		return nil, err
	}
	var closeOnce sync.Once
	closeCoord := func() { closeOnce.Do(func() { coord.Close() }) }
	defer closeCoord()

	// Set-up: every worker dials (the handshake completes once all have
	// joined) and builds its network and trainer.
	ready := make(chan *syncWorker, s.workers)
	for i := 0; i < s.workers; i++ {
		go func(i int) {
			w := &syncWorker{c: &stepClock{tr: tr, reduceSpan: s.reduceSpan}}
			w.wk, w.err = etalstm.DialSync(coord.Addr().String(), b.Cfg, etalstm.WorkerSyncOptions{})
			if w.err == nil {
				w.net, w.err = etalstm.NewNetwork(b.Cfg, seed)
			}
			if w.err == nil {
				w.c.name = fmt.Sprintf("%s/w%d", name, w.wk.ID())
				w.trn = etalstm.NewTrainer(w.net, etalstm.Baseline, etalstm.TrainerOptions{
					Workers:      1,
					Optimizer:    timedOptimizer{inner: &etalstm.Adam{LR: 0.01}, c: w.c},
					Sync:         timedSync{inner: w.wk, c: w.c},
					RecordPhases: tr != nil,
				})
			}
			ready <- w
		}(i)
	}
	workers := make([]*syncWorker, 0, s.workers)
	var setupErr error
	for i := 0; i < s.workers; i++ {
		w := <-ready
		if w.err != nil && setupErr == nil {
			setupErr = w.err
			closeCoord() // unblocks any peer still waiting in its handshake
		}
		workers = append(workers, w)
	}
	if setupErr != nil {
		for _, w := range workers {
			if w.wk != nil {
				w.wk.Close()
			}
		}
		return nil, fmt.Errorf("train-sync set-up: %w", setupErr)
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i].wk.ID() < workers[j].wk.ID() })
	out := &trialOut{traced: tr != nil, setup: time.Since(t0)}

	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *syncWorker) {
			defer wg.Done()
			defer w.wk.Close()
			p := timedProvider{inner: stridedShard{inner: data, stride: s.workers, offset: w.wk.ID()}, c: w.c}
			for e := 0; e < s.epochs; e++ {
				var st etalstm.EpochStats
				if err := w.c.runEpoch(func() (err error) { st, err = w.trn.RunEpoch(ctx, p, e); return err }); err != nil {
					w.err = fmt.Errorf("train-sync worker %d epoch %d: %w", w.wk.ID(), e, err)
					closeCoord() // a peer blocked in Reduce must not wait forever
					return
				}
				w.stats = append(w.stats, st)
			}
		}(w)
	}
	wg.Wait()
	out.wall = time.Since(start)
	for _, w := range workers {
		if w.err != nil {
			return nil, w.err
		}
	}
	if err := coord.Wait(); err != nil {
		return nil, fmt.Errorf("train-sync coordinator: %w", err)
	}
	out.staleSteps, out.lateFolds, out.tailDrops = coord.StaleSteps(), coord.LateFolds(), coord.TailDropped()
	out.phases = make(map[string]time.Duration)
	for _, w := range workers {
		out.clocks = append(out.clocks, w.c)
		out.stats = append(out.stats, w.stats)
		out.wireBytes += w.wk.WireBytes()
		for k, v := range phaseDelta(nil, w.trn.Phases()) {
			out.phases[k] += v
		}
		d, err := persist.Digest(w.net)
		if err != nil {
			return nil, err
		}
		out.digests = append(out.digests, d)
	}
	out.samples = s.epochs * (data.NumBatches() / s.workers) * s.workers * b.Cfg.Batch
	return out, nil
}

// minTimedSteps is how many timed steps a run reaches before it may stop, so
// that the step-time p90 has ten samples beyond it.
const minTimedSteps = 100

// trialFn runs one trial; tr is nil for an untraced trial.
type trialFn func(ctx context.Context, tr *tracer, name string) (*trialOut, error)

// runTrials runs an untraced warm-up trial (the reference for the
// output checks, not timed), then timed trials until the measuring
// window of o.seconds is used up and the run holds enough steps. In a
// traced run the timed trials alternate traced and untraced, which is
// what the tracing overhead is measured from.
func runTrials(ctx context.Context, o runOpts, s trainSpec, trial trialFn) (warm *trialOut, timed []*trialOut, err error) {
	warm, err = trial(ctx, nil, "warm")
	if err != nil {
		return nil, nil, err
	}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	last := warm.setup + warm.wall
	steps, tracedN, untracedN := 0, 0, 0
	for i := 1; ; i++ {
		enough := steps >= minTimedSteps && (!o.trace || (tracedN > 0 && untracedN > 0))
		if enough && time.Now().Add(last).After(deadline) {
			break
		}
		var tr *tracer
		if o.trace && i%2 == 1 {
			tr = o.tracer
		}
		// Each trial starts from a collected heap with its free pages
		// returned, as a fresh process would, so its memory peak does not
		// depend on what earlier trials left behind.
		debug.FreeOSMemory()
		o.mem.take()
		t, err := trial(ctx, tr, fmt.Sprintf("t%d", i))
		if err != nil {
			return nil, nil, err
		}
		t.memMB = o.mem.take()
		timed = append(timed, t)
		last = t.setup + t.wall
		steps += t.steps()
		if t.traced {
			tracedN++
		} else {
			untracedN++
		}
	}
	return warm, timed, nil
}

// trainChecks are the output checks of a training workload.
func trainChecks(r *result, s trainSpec, warm *trialOut, timed []*trialOut) {
	final, first := warm.finalLoss(), warm.epochLoss(0)
	r.check("loss_final is finite and below the first epoch's loss",
		!math.IsNaN(final) && !math.IsInf(final, 0) && final < first,
		"first %.6g, final %.6g", first, final)
	same := true
	for _, t := range timed {
		if t.finalLoss() != final || t.digests[0] != warm.digests[0] {
			same = false
		}
	}
	r.check("every trial ends on the identical loss and weights", same,
		"reference loss %.17g over %d trials", final, len(timed)+1)
}

// trainMetrics derives the end-to-end and per-layer metrics of a
// training workload from its timed trials.
func trainMetrics(r *result, s trainSpec, warm *trialOut, timed []*trialOut) error {
	var setups, stepMs, reduceMs, mems []float64
	var steps int
	var reduceNs, batchNs, optNs int64
	for _, t := range append([]*trialOut{warm}, timed...) {
		setups = append(setups, t.setup.Seconds())
	}
	for _, t := range timed {
		for _, c := range t.clocks {
			stepMs = append(stepMs, c.stepMs...)
			reduceMs = append(reduceMs, c.reduceMs...)
			steps += c.steps
			reduceNs += c.reduceNs
			batchNs += c.batchNs
			optNs += c.optNs
		}
		mems = append(mems, t.memMB)
	}
	p50, err := mustPercentile("step_ms", stepMs, 0.5)
	if err != nil {
		return err
	}
	p90, err := mustPercentile("step_ms", stepMs, 0.9)
	if err != nil {
		return err
	}
	r.attempted, r.failed = steps, 0
	for _, t := range timed {
		r.failed += int(t.tailDrops)
	}
	// Throughput is the median over trials, so a trial slowed by
	// contention on the host does not move it.
	var perTrial []float64
	for _, t := range timed {
		perTrial = append(perTrial, float64(t.samples)/t.wall.Seconds())
	}
	sps := median(perTrial)

	r.set("setup_s", median(setups), len(setups))
	r.set("throughput_per_s", sps, len(timed))
	r.set("latency_ms_p50", p50, len(stepMs))
	r.set("peak_mem_mb", median(mems), len(mems))
	r.report("peak_rss_mb", "MB", peakRSSMB(), 1)

	r.report("samples_per_s", "1/s", sps, len(timed))
	r.report("step_ms_p50", "ms", p50, len(stepMs))
	r.report("step_ms_p90", "ms", p90, len(stepMs))
	r.report("loss_final", "loss", warm.finalLoss(), 1)
	r.layer("train.loss_final", warm.finalLoss())
	r.layer("train.batch_wait_ms", float64(batchNs)/1e6/float64(steps))
	r.layer("train.optimizer_ms", float64(optNs)/1e6/float64(steps))

	// MS1, MS2 and memory-budget behaviour, from the reference trial.
	var prune [2]int64
	var skipFrac []float64
	var peak int64
	var recompute []float64
	for _, st := range warm.stats {
		for e, es := range st {
			prune[0] += es.PruneStats.Pruned
			prune[1] += es.PruneStats.Elements
			if e >= 3 {
				skipFrac = append(skipFrac, es.MeasuredSkipFrac())
			}
			peak = max(peak, es.PeakStoredBytes)
			recompute = append(recompute, es.RecomputeRatio())
		}
	}
	pruneFrac := 0.0
	if prune[1] > 0 {
		pruneFrac = float64(prune[0]) / float64(prune[1])
	}
	r.layer("reorder.prune_frac", pruneFrac)
	r.report("prune_frac", "frac", pruneFrac, 1)
	r.layer("skip.skip_frac", mean(skipFrac))
	r.layer("model.recompute_ratio", mean(recompute))
	r.layer("model.peak_stored_mb", float64(peak)/1e6)
	if s.inproc() {
		r.layer("lstm.sparse_density", 1-pruneFrac)
		r.report("peak_stored_mb", "MB", float64(peak)/1e6, 1)
		r.layer("memplan.modeled_peak_mb", float64(warm.plan.PredictedPeak)/1e6)
		r.layer("memplan.peak_model_ratio", float64(peak)/float64(warm.plan.PredictedPeak))
		r.layer("parallel.allreduce_ms", float64(reduceNs)/1e6/float64(steps))
		r.check("measured stored peak stays within the memory budget", peak > 0 && peak <= warm.budget,
			"peak %d B, budget %d B", peak, warm.budget)
	} else {
		r.layer("lstm.sparse_density", 1) // dense BP touches every pair
		var stepSum float64
		for _, v := range stepMs {
			stepSum += v
		}
		var wire, stale, late, tail int64
		for _, t := range timed {
			wire += t.wireBytes
			stale += t.staleSteps
			late += t.lateFolds
			tail += t.tailDrops
		}
		sp50, _ := percentile(reduceMs, 0.5)
		sp90, err := mustPercentile("dist.sync_ms", reduceMs, 0.9)
		if err != nil {
			return err
		}
		r.layer("dist.sync_ms_p50", sp50)
		r.layer("dist.sync_ms_p90", sp90)
		r.layer("dist.exposed_frac", float64(reduceNs)/1e6/stepSum)
		r.layer("dist.wire_mb_per_step", float64(wire)/1e6/float64(steps))
		r.layer("dist.calls_per_step", float64(len(reduceMs))/float64(steps))
		r.layer("dist.stale_steps", float64(stale))
		r.layer("dist.late_folds", float64(late))
		r.layer("dist.tail_dropped", float64(tail))
		same := true
		for _, t := range append([]*trialOut{warm}, timed...) {
			for _, d := range t.digests {
				same = same && d == t.digests[0]
			}
		}
		r.check("train-sync workers finish with bitwise-identical parameters", same,
			"%d trials of %d workers", len(timed)+1, s.workers)
	}
	return traceMetrics(r, s, timed)
}

// traceMetrics fills the per-layer numbers that come from the traced
// trials: phase times from Trainer.Phases, the span-derived layer
// breakdown with its unattributed row, and the tracing overhead.
func traceMetrics(r *result, s trainSpec, timed []*trialOut) error {
	var traced, untraced []float64
	steps := 0
	phases := make(map[string]time.Duration)
	for _, t := range timed {
		if !t.traced {
			untraced = append(untraced, float64(t.wall))
			continue
		}
		traced = append(traced, float64(t.wall))
		steps += t.steps()
		for k, v := range t.phases {
			phases[k] += v
		}
	}
	if len(traced) == 0 {
		return nil
	}
	// Phase times are summed over replicas. The replicas of one step run
	// side by side, so one replica's share is what the step's wall time
	// holds.
	replicas := 1
	if s.inproc() {
		replicas = s.workers
	}
	phaseMs := func(phase string) float64 { return float64(phases[phase]) / 1e6 / float64(replicas) }
	layers := []struct{ name, phase string }{
		{"lstm.fw", "FW"}, {"lstm.bp_ew_p1", "BP-EW-P1"}, {"lstm.bp_ew_p2", "BP-EW-P2"},
		{"lstm.bp_matmul", "BP-MatMul"}, {"model.recompute_fw", "recompute-FW"},
	}
	for _, l := range layers {
		r.layer(l.name+"_ms", phaseMs(l.phase)/float64(steps))
	}
	r.layer("obs.trace_overhead_frac", median(traced)/median(untraced)-1)

	spans := r.spans.snapshot()
	self := selfByName(spans)
	var wall int64
	for _, sp := range spans {
		if sp.Name == "core.epoch" {
			wall += sp.dur()
		}
	}
	rows := []row{
		{"train.batch_wait", float64(self["train.batch"]) / 1e6},
		{"train.optimizer", float64(self["train.optimizer"]) / 1e6},
		{s.reduceSpan, float64(self[s.reduceSpan]) / 1e6},
	}
	for _, l := range layers {
		rows = append(rows, row{l.name, phaseMs(l.phase)})
	}
	r.rows = breakdown(wall, rows)
	r.wallMs = float64(wall) / 1e6
	r.layer("core.unattributed_ms", r.rows[len(r.rows)-1].Ms/float64(steps))
	return nil
}
