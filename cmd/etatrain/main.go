// Command etatrain trains one of the Table I benchmarks (at a chosen
// scale) under a selected optimization mode and reports per-epoch loss,
// skip statistics, pruning statistics and the modeled footprint.
//
// Usage:
//
//	etatrain -bench IMDB -mode combined -epochs 12
//	etatrain -bench WMT -mode ms1 -hidden-div 32 -seq 24 -batch 16
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"etalstm"
	"etalstm/internal/obs"
	"etalstm/internal/rtrace"
)

func main() {
	// Ctrl-C cancels training between minibatch groups instead of
	// killing the process mid-epoch.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "etatrain:", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags come from
// args, output goes to w, failures return instead of exiting.
func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("etatrain", flag.ContinueOnError)
	var (
		benchName = fs.String("bench", "IMDB", "benchmark: TREC-10, PTB, IMDB, WAYMO, WMT, BABI")
		modeName  = fs.String("mode", "combined", "baseline | ms1 | ms2 | combined")
		epochs    = fs.Int("epochs", 10, "training epochs")
		batches   = fs.Int("batches", 4, "minibatches per epoch")
		hiddenDiv = fs.Int("hidden-div", 64, "divide the paper's hidden size by this")
		seqCap    = fs.Int("seq", 16, "cap the layer length")
		batchCap  = fs.Int("batch", 8, "cap the batch size")
		seed      = fs.Uint64("seed", 42, "seed")
		workers   = fs.Int("workers", 1, "data-parallel replica workers (0 = derive from CPU count)")
		kernelW   = fs.Int("kernel-workers", 0, "goroutines per tensor kernel (0 = keep default)")
		corpusPth = fs.String("corpus", "", "train a byte-level LM on this text file instead of a benchmark")
		memBudget = fs.String("mem-budget", "", `cap stored activation bytes per FW+BP pass, e.g. "512MiB" or "320KiB" (empty = full storage); tighter budgets checkpoint more and recompute FW segments during BP`)
		hidden    = fs.Int("hidden", 64, "hidden size for -corpus mode")
		loadPath  = fs.String("load", "", "resume from a checkpoint file")
		savePath  = fs.String("save", "", "write a checkpoint file after training")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file on exit")
		metrics   = fs.String("metrics-addr", "", `serve GET /metrics (Prometheus text) on this address while training (e.g. "127.0.0.1:9090")`)
		traceOn   = fs.Bool("trace", false, "record step traces in an in-process flight recorder: SIGQUIT dumps it, -metrics-addr exposes it at /debug/traces")

		coordAddr     = fs.String("coordinator", "", `run as a gradient-merge coordinator on this address (e.g. ":7600"): no training here, just deterministic merge + broadcast for -dist-workers worker processes with matching geometry flags`)
		workerAddr    = fs.String("worker", "", "join a multi-process run as a worker of the coordinator at this address")
		distWorkers   = fs.Int("dist-workers", 2, "(coordinator) worker processes to admit before training starts")
		distQuorum    = fs.Int("dist-quorum", 0, "(coordinator) admit a step once this many contributions arrived and stragglers exceeded -dist-deadline (0 = wait for all: the deterministic mode)")
		distDeadline  = fs.Duration("dist-deadline", 0, "(coordinator) straggler wait after the quorum is met (0 = 50ms)")
		distKeep      = fs.Float64("dist-keep", 0, "compress gradient sync payloads, keeping this top fraction per tensor with error feedback (0 = dense; try 0.05)")
		distThreshold = fs.Float64("dist-threshold", 0, "compress gradient sync payloads with an MS1-style near-zero cutoff instead of top-k (0 = off; overrides -dist-keep)")
		distWarmup    = fs.Int("dist-warmup", 0, "ship this many initial optimizer steps dense before compression kicks in (same value on coordinator and workers)")
		dataSeed      = fs.Uint64("data-seed", 0, "override the training data shard seed (0 = -seed, or derived from -seed and the worker id in distributed runs)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obs.RegisterBuildInfo(obs.Default)

	if *kernelW > 0 {
		etalstm.SetWorkers(*kernelW)
	}
	var tracer *rtrace.Tracer
	if *traceOn {
		proc := "etatrain"
		if *coordAddr != "" {
			proc = "etatrain-coordinator"
		} else if *workerAddr != "" {
			proc = "etatrain-worker"
		}
		tracer = rtrace.Enable(rtrace.Options{Process: proc})
		defer tracer.DumpOnSignal(os.Stderr)()
	}
	if *metrics != "" {
		stopMetrics, err := serveMetrics(*metrics, tracer, w)
		if err != nil {
			return err
		}
		defer stopMetrics()
	}
	finish, err := profileTo(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer finish()

	mode, err := parseMode(*modeName)
	if err != nil {
		return err
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		return err
	}
	topts := etalstm.TrainerOptions{Workers: *workers, MemoryBudget: budget}
	compression := distCompression(*distKeep, *distThreshold, *distWarmup)
	if *corpusPth != "" {
		if *coordAddr != "" || *workerAddr != "" {
			return fmt.Errorf("distributed training requires a -bench geometry; -corpus is not supported")
		}
		return trainCorpus(ctx, w, *corpusPth, mode, topts, *hidden, *seqCap, *batchCap, *epochs, *batches, *seed)
	}
	bench, err := etalstm.BenchmarkByName(*benchName)
	if err != nil {
		return err
	}
	full := bench
	bench = bench.Scaled(*hiddenDiv, *seqCap, *batchCap)

	if *coordAddr != "" {
		return runCoordinator(ctx, w, *coordAddr, bench.Cfg, etalstm.CoordinatorOptions{
			ExpectWorkers: *distWorkers,
			Quorum:        *distQuorum,
			Deadline:      *distDeadline,
			Compression:   compression,
		})
	}
	fmt.Fprintf(w, "benchmark %s (%v): paper geometry H=%d LN=%d LL=%d; training at H=%d LL=%d B=%d\n",
		full.Name, full.Cfg.Loss, full.Cfg.Hidden, full.Cfg.Layers, full.Cfg.SeqLen,
		bench.Cfg.Hidden, bench.Cfg.SeqLen, bench.Cfg.Batch)

	var net *etalstm.Network
	if *loadPath != "" {
		net, err = etalstm.LoadNetwork(*loadPath)
		if err != nil {
			return err
		}
		if err := etalstm.CheckConfig(net.Cfg, bench.Cfg); err != nil {
			return fmt.Errorf("%w (adjust -hidden-div/-seq/-batch to the checkpoint's scale)", err)
		}
		fmt.Fprintf(w, "resumed from %s\n", *loadPath)
	} else {
		net, err = etalstm.NewNetwork(bench.Cfg, *seed)
		if err != nil {
			return err
		}
	}
	var wk *etalstm.WorkerSync
	provSeed := *seed
	if *workerAddr != "" {
		wk, err = etalstm.DialSync(*workerAddr, bench.Cfg, etalstm.WorkerSyncOptions{Compression: compression})
		if err != nil {
			return err
		}
		defer wk.Close()
		topts.Sync = wk
		fmt.Fprintf(w, "distributed: worker %d of %d via %s\n", wk.ID(), wk.Total(), *workerAddr)
		// Distinct shards by default: each worker trains different data
		// but applies the identical merged step.
		provSeed = *seed + 1000003*uint64(wk.ID())
	}
	if *dataSeed != 0 {
		provSeed = *dataSeed
	}
	tr := etalstm.NewTrainer(net, mode, topts)
	if tr.Workers() > 1 {
		fmt.Fprintf(w, "data-parallel: %d replica workers\n", tr.Workers())
	}
	if err := printPlan(w, bench.Cfg, mode, budget); err != nil {
		return err
	}
	prov := bench.Provider(*batches, provSeed)

	var peakStored int64
	for e := 0; e < *epochs; e++ {
		st, err := tr.RunEpoch(ctx, prov, e)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(w, "interrupted; stopping after", e, "epochs")
			break
		}
		if err != nil {
			return err
		}
		line := fmt.Sprintf("epoch %2d  loss %.4f  wall %.2fs", e, st.MeanLoss, st.Wall.Seconds())
		if skipped := st.MeasuredSkipFrac(); skipped > 0 {
			line += fmt.Sprintf("  skipped %.0f%% of BP cells", 100*skipped)
		}
		if st.PruneStats.Elements > 0 {
			line += fmt.Sprintf("  pruned %.0f%% of P1", 100*st.PruneStats.Frac())
		}
		if st.PeakStoredBytes > peakStored {
			peakStored = st.PeakStoredBytes
		}
		fmt.Fprintln(w, line)
	}
	printPeak(w, tr, budget, peakStored)
	if wk != nil && wk.WireBytes() > 0 {
		fmt.Fprintf(w, "gradient sync: %.1f KiB on wire, %.1f KiB dense equivalent (%.1fx)\n",
			float64(wk.WireBytes())/1024, float64(wk.DenseBytes())/1024, wk.Ratio())
	}

	loss, acc, err := etalstm.Evaluate(net, bench.Provider(2, *seed+100))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "eval: loss %.4f accuracy %.1f%%\n", loss, 100*acc)

	if *savePath != "" {
		if err := etalstm.SaveNetwork(*savePath, net); err != nil {
			return err
		}
		fmt.Fprintf(w, "checkpoint written to %s\n", *savePath)
	}

	fp := etalstm.Analyze(full.Cfg, mode).Footprint
	base := etalstm.Analyze(full.Cfg, etalstm.Baseline).Footprint
	fmt.Fprintf(w, "modeled footprint at paper geometry: %.2f GB (baseline %.2f GB, -%.1f%%)\n",
		float64(fp.Total())/1e9, float64(base.Total())/1e9,
		100*(1-float64(fp.Total())/float64(base.Total())))
	return nil
}

// distCompression maps the -dist-keep / -dist-threshold / -dist-warmup
// flags onto sync compression options (nil = dense payloads).
func distCompression(keep, threshold float64, warmup int) *etalstm.CompressOptions {
	if keep <= 0 && threshold <= 0 {
		return nil
	}
	return &etalstm.CompressOptions{KeepFrac: keep, Threshold: float32(threshold), WarmupSteps: warmup}
}

// runCoordinator serves one multi-process merge session and reports its
// outcome. ctx cancellation (Ctrl-C) closes the session.
func runCoordinator(ctx context.Context, w io.Writer, addr string, cfg etalstm.Config, opts etalstm.CoordinatorOptions) error {
	c, err := etalstm.StartCoordinator(addr, cfg, opts)
	if err != nil {
		return err
	}
	quorum := opts.Quorum
	if quorum <= 0 || quorum > opts.ExpectWorkers {
		quorum = opts.ExpectWorkers
	}
	fmt.Fprintf(w, "coordinator on %s: waiting for %d workers (quorum %d)\n", c.Addr(), opts.ExpectWorkers, quorum)
	done := make(chan error, 1)
	go func() { done <- c.Wait() }()
	select {
	case err := <-done:
		fmt.Fprintf(w, "coordinator served %d merged steps (%d stale, %d late contributions folded)\n",
			c.Steps(), c.StaleSteps(), c.LateFolds())
		return err
	case <-ctx.Done():
		c.Close()
		<-done
		return ctx.Err()
	}
}

// Connection limits of the metrics listener: a scraper has
// readHeaderTimeout to finish sending its request headers, and a
// keep-alive connection idle for idleTimeout is closed. Tests may lower
// them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serveMetrics exposes the process-wide telemetry registry over HTTP
// for the duration of the run. The bound address is printed (addr may
// end in :0), so scrapers — and the obs smoke test — can find the port.
func serveMetrics(addr string, tracer *rtrace.Tracer, w io.Writer) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", etalstm.MetricsHandler())
	if tracer != nil {
		mux.Handle("GET /debug/traces", tracer.Handler())
		mux.Handle("GET /debug/traces/{id}", tracer.Handler())
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go hs.Serve(ln)
	fmt.Fprintf(w, "metrics: http://%s/metrics\n", ln.Addr())
	return func() { hs.Close() }, nil
}

// parseBytes parses a human byte size: a bare integer is bytes, and
// the suffixes B, KiB/MiB/GiB (binary) and KB/MB/GB (decimal) scale it,
// case-insensitively. Empty means no budget (0).
func parseBytes(s string) (int64, error) {
	l := strings.ToLower(strings.TrimSpace(s))
	if l == "" {
		return 0, nil
	}
	mult := int64(1)
	switch {
	case strings.HasSuffix(l, "kib"):
		mult, l = 1<<10, l[:len(l)-3]
	case strings.HasSuffix(l, "mib"):
		mult, l = 1<<20, l[:len(l)-3]
	case strings.HasSuffix(l, "gib"):
		mult, l = 1<<30, l[:len(l)-3]
	case strings.HasSuffix(l, "kb"):
		mult, l = 1_000, l[:len(l)-2]
	case strings.HasSuffix(l, "mb"):
		mult, l = 1_000_000, l[:len(l)-2]
	case strings.HasSuffix(l, "gb"):
		mult, l = 1_000_000_000, l[:len(l)-2]
	case strings.HasSuffix(l, "b"):
		l = l[:len(l)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(l), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid byte size %q (want e.g. 65536, 320KiB, 512MiB)", s)
	}
	return n * mult, nil
}

// printPlan reports what the memory budget buys before training starts:
// the checkpoint placement, its predicted peak and recompute overhead.
// An infeasible budget fails here, with the diagnostic the trainer
// would produce one epoch later.
func printPlan(w io.Writer, cfg etalstm.Config, mode etalstm.Mode, budget int64) error {
	if budget <= 0 {
		return nil
	}
	pl := etalstm.PlanFor(cfg, mode, budget)
	if !pl.Feasible {
		return fmt.Errorf("memory budget %d B is infeasible: even per-step checkpoints need %d B", budget, pl.PredictedPeak)
	}
	fmt.Fprintf(w, "memory budget %d B: %s (full storage would peak at %d B)\n", budget, pl.String(), pl.FullPeak)
	return nil
}

// printPeak reports the measured peak stored bytes against the budget
// and the plan's prediction after a budgeted run.
func printPeak(w io.Writer, tr *etalstm.Trainer, budget, peakStored int64) {
	if budget <= 0 || peakStored <= 0 {
		return
	}
	pl := tr.Plan()
	fmt.Fprintf(w, "measured peak stored %d B (budget %d B, predicted %d B)\n", peakStored, budget, pl.PredictedPeak)
}

func parseMode(s string) (etalstm.Mode, error) {
	switch strings.ToLower(s) {
	case "baseline":
		return etalstm.Baseline, nil
	case "ms1":
		return etalstm.MS1, nil
	case "ms2":
		return etalstm.MS2, nil
	case "combined", "combine-ms":
		return etalstm.Combined, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// profileTo starts CPU profiling (when cpuPath is non-empty) and returns
// a cleanup that stops it and writes a heap profile (when memPath is
// non-empty). Both paths are pprof files for `go tool pprof`.
func profileTo(cpuPath, memPath string) (func(), error) {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	return func() {
		if cpuPath != "" {
			pprof.StopCPUProfile()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "etatrain:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush unreachable buffers so the profile shows live memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "etatrain:", err)
			}
		}
	}, nil
}

// trainCorpus runs byte-level language modeling over a user text file.
func trainCorpus(ctx context.Context, w io.Writer, path string, mode etalstm.Mode, topts etalstm.TrainerOptions, hidden, seqLen, batch, epochs, batches int, seed uint64) error {
	c, err := etalstm.LoadCorpusFile(path, 32, seed)
	if err != nil {
		return err
	}
	cfg := c.Config(hidden, 2, seqLen, batch)
	fmt.Fprintf(w, "corpus %s: %d bytes; byte-level LM H=%d LN=%d LL=%d B=%d\n",
		path, c.Len(), cfg.Hidden, cfg.Layers, cfg.SeqLen, cfg.Batch)
	prov, err := c.Provider(cfg, batches, seed)
	if err != nil {
		return err
	}
	net, err := etalstm.NewNetwork(cfg, seed)
	if err != nil {
		return err
	}
	if err := printPlan(w, cfg, mode, topts.MemoryBudget); err != nil {
		return err
	}
	tr := etalstm.NewTrainer(net, mode, topts)
	var peakStored int64
	for e := 0; e < epochs; e++ {
		st, err := tr.RunEpoch(ctx, prov, e)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(w, "interrupted; stopping after", e, "epochs")
			return nil
		}
		if err != nil {
			return err
		}
		if st.PeakStoredBytes > peakStored {
			peakStored = st.PeakStoredBytes
		}
		fmt.Fprintf(w, "epoch %2d  loss %.4f  perplexity %.1f\n", e, st.MeanLoss, math.Exp(st.MeanLoss))
	}
	printPeak(w, tr, topts.MemoryBudget, peakStored)
	return nil
}
