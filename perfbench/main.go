// Command perfbench is the repository's benchmark: one command that
// runs a named workload against the program's public functions and
// seams, checks its outputs, and prints every metric by name and unit.
// The last line of standard output is the machine-readable result.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload train-eta --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --spread .bench_build/results
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"etalstm"
)

// metric names one reported number. The tables below are the contract
// BENCHMARK.json repeats.
type metric struct {
	name, unit string
}

// endToEnd are the metrics of the untraced run. Each workload defines
// them in its own terms (README.md): throughput is samples/s for
// training and the saturation throughput for serving; the latency is
// the median step time for training and the median due-to-response
// request time at the mid rate for serving. Tail percentiles are
// reported beside them but not gated on: on a shared two-core host
// they move with neighbours' load by more than any useful bound.
var endToEnd = []metric{
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"peak_mem_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of the traced run. A layer a workload does
// not exercise reports 0.
var perLayer = []metric{
	{"tensor.matmul_gflops", "GFLOP/s"},
	{"tensor.matmul_transb_gflops", "GFLOP/s"},
	{"tensor.addmatmul_transa_gflops", "GFLOP/s"},
	{"tensor.probe_ops", "count"},
	{"tensor.probe_mb", "MB"},
	{"lstm.fw_ms", "ms"},
	{"lstm.bp_ew_p1_ms", "ms"},
	{"lstm.bp_ew_p2_ms", "ms"},
	{"lstm.bp_matmul_ms", "ms"},
	{"lstm.sparse_density", "frac"},
	{"reorder.prune_frac", "frac"},
	{"model.recompute_fw_ms", "ms"},
	{"model.recompute_ratio", "frac"},
	{"model.peak_stored_mb", "MB"},
	{"memplan.modeled_peak_mb", "MB"},
	{"memplan.peak_model_ratio", "ratio"},
	{"skip.skip_frac", "frac"},
	{"parallel.allreduce_ms", "ms"},
	{"train.optimizer_ms", "ms"},
	{"train.batch_wait_ms", "ms"},
	{"train.loss_final", "loss"},
	{"core.unattributed_ms", "ms"},
	{"dist.sync_ms_p50", "ms"},
	{"dist.sync_ms_p90", "ms"},
	{"dist.exposed_frac", "frac"},
	{"dist.wire_mb_per_step", "MB"},
	{"dist.calls_per_step", "count"},
	{"dist.stale_steps", "count"},
	{"dist.late_folds", "count"},
	{"dist.tail_dropped", "count"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.handler_ms_p99", "ms"},
	{"serve.mean_batch", "count"},
	{"serve.queue_depth_max", "count"},
	{"serve.rejected", "count"},
	{"fleet.hop_ms_p50", "ms"},
	{"fleet.hop_ms_p99", "ms"},
	{"fleet.load_imbalance", "ratio"},
	{"fleet.retries", "count"},
	{"persist.load_ms", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"obs.trace_overhead_frac", "frac"},
}

var workloads = []string{"train-eta", "train-sync", "serve-fleet"}

type runOpts struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string      // directory for results, spans and working files
	tracer   *tracer     // nil unless trace
	mem      *memSampler // peak memory per timed interval
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

type reportLine struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// result collects everything one run measured and checked.
type result struct {
	checks    []checkResult
	attempted int
	failed    int
	values    map[string]float64 // end-to-end and per-layer metrics
	samples   map[string]int
	reports   []reportLine // the workload's own named metrics
	rows      []row        // traced layer breakdown, unattributed last
	wallMs    float64      // the traced wall time the rows add up to
	spans     *tracer
}

func newResult(tr *tracer) *result {
	return &result{values: make(map[string]float64), samples: make(map[string]int), spans: tr}
}

// set records an end-to-end metric with its sample count.
func (r *result) set(name string, v float64, n int) { r.values[name] = v; r.samples[name] = n }

// layer records a per-layer metric.
func (r *result) layer(name string, v float64) { r.values[name] = v }

// report records a workload-specific metric printed in the report.
func (r *result) report(name, unit string, v float64, n int) {
	r.reports = append(r.reports, reportLine{name, unit, v, n})
}

// check records an output check; any failed check makes the run
// incorrect.
func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, checkResult{name, ok, fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return len(r.checks) > 0
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runLimit keeps every run inside the 180 s a run may take.
const runLimit = 170 * time.Second

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measuring window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for results, spans and working files")
	spreadDir := fs.String("spread", "", "print the run-to-run spread of the results in this directory and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spreadDir != "" {
		return printSpread(stdout, *spreadDir)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	o := runOpts{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	if o.trace {
		o.tracer = newTracer()
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}

	// Load comes from this one process on at most two cores, and the
	// kernels run serially inside each replica worker, so replicas ×
	// kernel workers never exceeds GOMAXPROCS.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	etalstm.SetWorkers(1)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	o.mem = startMemSampler()
	defer o.mem.stop()
	r := newResult(o.tracer)
	var err error
	switch o.workload {
	case "train-eta":
		err = runTraining(ctx, o, etaSpec, r, etaTrial)
	case "train-sync":
		err = runTraining(ctx, o, syncSpec, r, syncTrial)
	case "serve-fleet":
		err = runServeFleet(ctx, o, fleetSpec, r)
	default:
		err = fmt.Errorf("%w %q (want one of %s)", errNoWorkload, o.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return err
	}
	return emit(stdout, o, r)
}

// runTraining runs a training workload's trials and derives its metrics.
func runTraining(ctx context.Context, o runOpts, s trainSpec,
	r *result, trial func(context.Context, trainSpec, etalstm.Benchmark, etalstm.Provider, uint64, *tracer, string) (*trialOut, error)) error {
	bench, err := etalstm.BenchmarkByName(s.bench)
	if err != nil {
		return err
	}
	b := bench.Scaled(s.hiddenDiv, s.maxSeq, s.maxBatch)
	// The inputs: batches generated from the seed before anything is
	// timed; trials only read them.
	data := b.Provider(s.batches, o.seed)
	warm, timed, err := runTrials(ctx, o, s, func(ctx context.Context, tr *tracer, name string) (*trialOut, error) {
		return trial(ctx, s, b, data, o.seed, tr, name)
	})
	if err != nil {
		return err
	}
	trainChecks(r, s, warm, timed)
	if err := trainMetrics(r, s, warm, timed); err != nil {
		return err
	}
	if o.trace {
		tensorProbe(r, b.Cfg.Batch, b.Cfg.Hidden)
	}
	return nil
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is the results file of one run, read back by -spread.
type runRecord struct {
	Workload  string                `json:"workload"`
	Seed      uint64                `json:"seed"`
	Seconds   int                   `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
	Samples   map[string]int        `json:"samples"`
	Reports   []reportLine          `json:"reports"`
	Checks    []checkResult         `json:"checks"`
	Breakdown []row                 `json:"breakdown,omitempty"`
	WallMs    float64               `json:"traced_wall_ms,omitempty"`
	GoVersion string                `json:"go_version"`
	MaxProcs  int                   `json:"gomaxprocs"`
}

// emit prints the report, writes the results (and, traced, the spans)
// under o.out, and prints the result object as the last line.
func emit(w io.Writer, o runOpts, r *result) error {
	table := endToEnd
	if o.trace {
		table = perLayer
	}
	metrics := make(map[string]jsonMetric, len(table))
	for _, m := range table {
		v, ok := r.values[m.name]
		if !ok && !o.trace {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", o.workload, m.name)
		}
		metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	rec := runRecord{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: metrics, Samples: r.samples, Reports: r.reports, Checks: r.checks,
		Breakdown: r.rows, WallMs: r.wallMs,
		GoVersion: runtime.Version(), MaxProcs: runtime.GOMAXPROCS(0),
	}
	if r.attempted < 1 {
		return fmt.Errorf("%s: no operation was attempted", o.workload)
	}

	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%d trace=%v gomaxprocs=%d %s\n",
		o.workload, o.seed, o.seconds, o.trace, rec.MaxProcs, rec.GoVersion)
	for _, c := range r.checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "# check  %s %s (%s)\n", status, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "# ops    attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, m := range table {
		fmt.Fprintf(w, "# metric %-32s %14.6g %s", m.name, metrics[m.name].Value, m.unit)
		if n, ok := r.samples[m.name]; ok {
			fmt.Fprintf(w, " n=%d", n)
		}
		fmt.Fprintln(w)
	}
	for _, l := range r.reports {
		fmt.Fprintf(w, "# report %-32s %14.6g %-8s n=%d\n", l.Name, l.Value, l.Unit, l.Samples)
	}
	if len(r.rows) > 0 {
		fmt.Fprintf(w, "# breakdown of %.3f ms traced wall time\n", r.wallMs)
		for _, row := range r.rows {
			fmt.Fprintf(w, "#   %-22s %14.3f ms %6.1f%%\n", row.Layer, row.Ms, 100*row.Ms/r.wallMs)
		}
	}

	dir := filepath.Join(o.out, "results", o.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("seed%d-trace%d", o.seed, boolInt(o.trace)))
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", raw, 0o644); err != nil {
		return err
	}
	if o.trace {
		if err := o.tracer.write(base + ".spans.jsonl"); err != nil {
			return err
		}
		fmt.Fprintf(w, "# spans  %s.spans.jsonl\n", base)
	}

	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printSpread reads the results files under dir and prints, per
// workload and end-to-end metric, the median and the quartile spread
// over the untraced runs, against the bounds in BENCHMARK.json.
func printSpread(w io.Writer, dir string) error {
	bounds := map[string]float64{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*", "*-trace0.json"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return errors.New("no untraced results found under " + dir)
	}
	values := map[string]map[string][]float64{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var rec runRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if values[rec.Workload] == nil {
			values[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			values[rec.Workload][name] = append(values[rec.Workload][name], m.Value)
		}
	}
	wls := sortedKeys(values)
	sort.Strings(wls)
	for _, wl := range wls {
		for _, m := range endToEnd {
			vs := values[wl][m.name]
			if len(vs) < 2 {
				continue
			}
			q, _ := quartiles(vs)
			sp, err := spread(vs)
			if err != nil {
				return fmt.Errorf("%s %s: %w", wl, m.name, err)
			}
			verdict := ""
			if b, ok := bounds[m.name]; ok && m.name != "setup_s" {
				switch {
				case sp > b:
					verdict = "OVER BOUND"
				case sp > b/3:
					verdict = "over a third of bound"
				default:
					verdict = "steady"
				}
			}
			fmt.Fprintf(w, "%-12s %-18s n=%-3d median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (bound %.3g) %s\n",
				wl, m.name, len(vs), median(vs), q[0], q[2], sp, bounds[m.name], verdict)
		}
	}
	return nil
}

var errNoWorkload = errors.New("unknown workload")

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
