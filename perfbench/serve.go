package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"etalstm"
	"etalstm/internal/fleet"
	"etalstm/internal/obs"
	"etalstm/internal/rtrace"
)

// serveSpec is the serve-fleet workload: an open-loop Poisson schedule
// into the router's handler, two replicas behind it on loopback.
type serveSpec struct {
	bench              string
	hiddenDiv          int
	replicas           int
	minSteps, maxSteps int     // request sequence lengths, uniform
	sessions           int     // sticky session ids, Zipf-ranked
	zipfS              float64 // Zipf exponent over session ranks
	sessionFrac        float64 // share of requests carrying a session
	pool               int     // distinct input sequences
	rates              []rate  // the fixed offered rates
	limitMs            float64 // p99 limit that defines max_rps
	probe              time.Duration
	setups             int
	checkSample        int     // stateless responses checked against Infer per phase
	clients            int     // closed-loop clients of the saturation interval
	satShare           float64 // of the untraced window, per burst
	tensorBatch        int
}

type rate struct {
	name  string
	rps   float64
	share float64 // of the untraced run's window
}

// TREC-10 geometry (2 layers) scaled to H=64; requests of 4 to 28 steps.
var fleetSpec = serveSpec{
	bench: "TREC-10", hiddenDiv: 48, replicas: 2,
	minSteps: 4, maxSteps: 28,
	sessions: 64, zipfS: 1.1, sessionFrac: 0.5,
	pool:        8192,
	rates:       []rate{{"low", 250, 0.12}, {"mid", 450, 0.11}, {"high", 700, 0.06}},
	limitMs:     100,
	probe:       1500 * time.Millisecond,
	setups:      5,
	checkSample: 64,
	clients:     64,
	satShare:    0.1,
	tensorBatch: 32,
}

// fleetRig is one stood-up fleet: replicas on loopback listeners and
// the router whose handler the generator calls in-process.
type fleetRig struct {
	net      *etalstm.Network // the network the checkpoint was saved from
	servers  []*etalstm.Server
	https    []*http.Server
	done     []chan error
	router   *fleet.Router
	handler  http.Handler
	loadMs   []float64
	setup    time.Duration
	ckptPath string
	// tracing turns the replica spans on for the traced intervals.
	tracing atomic.Bool
}

// standUp builds the network, saves it as a checkpoint, loads it into
// each replica, starts the replicas and the router, and waits until all
// answer ready: the serve-fleet set-up that setup_s times.
func standUp(ctx context.Context, s serveSpec, cfg etalstm.Config, seed uint64, dir string, tr *tracer) (*fleetRig, error) {
	t0 := time.Now()
	rig := &fleetRig{ckptPath: filepath.Join(dir, fmt.Sprintf("fleet-%d.ckpt", seed))}
	var err error
	if rig.net, err = etalstm.NewNetwork(cfg, seed); err != nil {
		return nil, err
	}
	if err := etalstm.SaveNetwork(rig.ckptPath, rig.net); err != nil {
		return nil, err
	}
	var urls []string
	for i := 0; i < s.replicas; i++ {
		l0 := time.Now()
		n, err := etalstm.LoadNetwork(rig.ckptPath)
		if err != nil {
			rig.tearDown()
			return nil, err
		}
		rig.loadMs = append(rig.loadMs, ms(time.Since(l0)))
		// The options etaserve applies by default, except one sweep
		// worker per replica: replicas × workers stays within the
		// benchmark's two cores.
		srv := etalstm.NewServer(n, etalstm.ServeOptions{
			Workers: 1,
			Log:     obs.NewLogger(os.Stderr),
			Tracer:  rtrace.New(rtrace.Options{Process: "etaserve"}),
		})
		ln, err := listenReplica(i)
		if err != nil {
			srv.Close(ctx)
			rig.tearDown()
			return nil, err
		}
		hs := &http.Server{Handler: timedHandler{inner: srv.Handler(), tr: tr, name: "serve.replica", on: &rig.tracing}}
		done := make(chan error, 1)
		go func() { done <- hs.Serve(ln) }()
		rig.servers = append(rig.servers, srv)
		rig.https = append(rig.https, hs)
		rig.done = append(rig.done, done)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	rig.router, err = fleet.New(fleet.Options{
		Replicas: urls,
		Log:      obs.NewLogger(os.Stderr),
		Tracer:   rtrace.New(rtrace.Options{Process: "etarouter"}),
	})
	if err != nil {
		rig.tearDown()
		return nil, err
	}
	rig.handler = rig.router.Handler()
	if err := rig.awaitReady(ctx, urls); err != nil {
		rig.tearDown()
		return nil, err
	}
	rig.setup = time.Since(t0)
	return rig, nil
}

// replicaPort is where replica i listens when the port is free. The
// router places sessions on a hash ring of the replica URLs, so fixed
// addresses give every run the same placement; an ephemeral port is the
// fallback.
const replicaPort = 41870

func listenReplica(i int) (net.Listener, error) {
	if ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", replicaPort+i)); err == nil {
		return ln, nil
	}
	return net.Listen("tcp", "127.0.0.1:0")
}

// awaitReady polls every replica's /readyz over its socket, then the
// router's, until all answer 200.
func (rig *fleetRig) awaitReady(ctx context.Context, urls []string) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, u := range urls {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/readyz", nil)
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if ctx.Err() != nil {
				return fmt.Errorf("replica %s not ready: %w", u, ctx.Err())
			}
			time.Sleep(time.Millisecond)
		}
	}
	rec := httptest.NewRecorder()
	rig.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("router not ready: HTTP %d", rec.Code)
	}
	return nil
}

// tearDown stops the router and drains every replica.
func (rig *fleetRig) tearDown() {
	if rig.router != nil {
		rig.router.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for i, hs := range rig.https {
		hs.Shutdown(ctx)
		<-rig.done[i]
		rig.servers[i].Close(ctx)
	}
	os.Remove(rig.ckptPath)
}

// reqPool holds the generated request inputs: distinct sequences of
// varying length, pre-encoded as the JSON of the "inputs" field.
type reqPool struct {
	seqs [][][]float32
	json [][]byte
}

func newReqPool(s serveSpec, width int, r *rand.Rand) (*reqPool, error) {
	p := &reqPool{}
	for i := 0; i < s.pool; i++ {
		steps := s.minSteps + r.IntN(s.maxSteps-s.minSteps+1)
		seq := make([][]float32, steps)
		for t := range seq {
			seq[t] = make([]float32, width)
			for j := range seq[t] {
				seq[t][j] = float32(r.Float64()*2 - 1)
			}
		}
		raw, err := json.Marshal(seq)
		if err != nil {
			return nil, err
		}
		p.seqs = append(p.seqs, seq)
		p.json = append(p.json, raw)
	}
	return p, nil
}

// request is one scheduled request of the open-loop generator.
type request struct {
	due     time.Time
	late    time.Duration // how far behind its schedule the generator sent it
	latency time.Duration // due → response
	status  int
	replica string
	seq     int    // pool index
	body    []byte // the response body, kept for checked requests
	router  live
}

// mix draws the traffic: which pool sequence, and whether it carries a
// Zipf-ranked session id.
type mix struct {
	s    serveSpec
	r    *rand.Rand
	zipf *rand.Zipf
	next int
}

func newMix(s serveSpec, r *rand.Rand) *mix {
	return &mix{s: s, r: r, zipf: rand.NewZipf(r, s.zipfS, 1, uint64(s.sessions-1))}
}

// draw returns the next request's pool index and session id ("" for a
// stateless request). Pool indices cycle, so a body repeats only after
// every other sequence has been sent.
func (m *mix) draw() (int, string) {
	seq := m.next % m.s.pool
	m.next++
	if m.r.Float64() < m.s.sessionFrac {
		return seq, "u" + strconv.FormatUint(m.zipf.Uint64(), 10)
	}
	return seq, ""
}

// drawStateless returns the next pool index for a stateless request.
func (m *mix) drawStateless() int {
	seq := m.next % m.s.pool
	m.next++
	return seq
}

// phase is one open-loop interval at a fixed offered rate.
type phase struct {
	name    string
	rps     float64
	reqs    []*request
	aborted bool
	memMB   float64
}

// openLoop sends Poisson arrivals at rps for dur into h. Each request is
// timed from its due time, so a stall delays the requests behind it in
// the measurement as it would for independent users. abortAt > 0 stops
// sending once that many requests are outstanding (a backlog that is
// clearly growing); the phase is then marked aborted.
func openLoop(ctx context.Context, h http.Handler, name string, rps float64, dur time.Duration, m *mix, pool *reqPool, tr *tracer, keepBodies int, abortAt int64) *phase {
	ph := &phase{name: name, rps: rps}
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	due := start
	kept := 0
	for ctx.Err() == nil {
		due = due.Add(time.Duration(m.r.ExpFloat64() / rps * float64(time.Second)))
		if due.Sub(start) >= dur {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if abortAt > 0 && inflight.Load() >= abortAt {
			ph.aborted = true
			break
		}
		seq, session := m.draw()
		rq := &request{due: due, late: time.Since(due), seq: seq}
		keep := session == "" && kept < keepBodies
		if keep {
			kept++
		}
		ph.reqs = append(ph.reqs, rq)
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			send(h, rq, pool, session, tr, keep)
		}()
	}
	wg.Wait()
	return ph
}

// closedLoop keeps clients requests outstanding for dur, each client
// sending its next request as soon as the previous one returns. It
// returns the successful completions after a short ramp and the time
// they were counted over. With more clients than the replicas' batches
// hold, this is the fleet's saturation throughput; it builds no
// unbounded queue, so nothing is shed.
func closedLoop(ctx context.Context, h http.Handler, clients int, dur time.Duration, m *mix, pool *reqPool) (ph *phase, done int, counted time.Duration) {
	ph = &phase{name: "saturate"}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	from, end := start.Add(dur/10), start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				mu.Lock()
				seq := m.drawStateless()
				mu.Unlock()
				session := ""
				rq := &request{due: time.Now(), seq: seq}
				send(h, rq, pool, session, nil, false)
				mu.Lock()
				ph.reqs = append(ph.reqs, rq)
				if fin := rq.due.Add(rq.latency); rq.status == http.StatusOK && !fin.Before(from) && fin.Before(end) {
					done++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	counted = end.Sub(from)
	ph.rps = float64(done) / counted.Seconds()
	return ph, done, counted
}

// send posts one request through the router's handler in-process.
func send(h http.Handler, rq *request, pool *reqPool, session string, tr *tracer, keep bool) {
	var body bytes.Buffer
	body.WriteString(`{"inputs":`)
	body.Write(pool.json[rq.seq])
	if session != "" {
		body.WriteString(`,"session":"` + session + `"`)
	}
	body.WriteByte('}')
	key := ""
	if tr != nil {
		key = bodyDigest(body.Bytes())
	}
	root := tr.startAt("loadgen.request", key, 0, rq.due)
	rq.router = tr.start("fleet.router", key, root.id)
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", &body)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	end := time.Now()
	rq.router.endAt(end)
	root.endAt(end)
	rq.latency = end.Sub(rq.due)
	rq.status = rec.Code
	rq.replica = rec.Header().Get("X-Eta-Replica")
	if keep {
		rq.body = rec.Body.Bytes()
	}
}

// latencies returns the due-to-response latencies (ms) of the phase's
// successful requests, and how many requests failed.
func (ph *phase) latencies() (lat []float64, failed int) {
	for _, rq := range ph.reqs {
		if rq.status != http.StatusOK {
			failed++
			continue
		}
		lat = append(lat, ms(rq.latency))
	}
	return lat, failed
}

// passes reports whether the phase met the p99 limit with no failures
// and no growing backlog, and its p99.
func (ph *phase) passes(limitMs float64) (bool, float64) {
	lat, failed := ph.latencies()
	p99, ok := percentile(lat, 0.99)
	if !ok {
		p99 = 0
		for _, v := range lat {
			p99 = max(p99, v)
		}
	}
	return !ph.aborted && failed == 0 && len(lat) > 0 && p99 <= limitMs, p99
}

// tailSamples is how many requests a timed interval sends at least, so
// that its p99 has ten samples beyond it.
const tailSamples = 1100

// phaseLen is how long an interval at rps must last to send
// tailSamples requests, and at least want.
func phaseLen(rps float64, want time.Duration) time.Duration {
	return max(want, time.Duration(tailSamples/rps*float64(time.Second)))
}

// searchMaxRPS finds the highest offered rate whose probes meet the p99
// limit with no failures and no growing backlog. It is an up-down
// staircase: a passing probe raises the rate by the step, a failing one
// lowers it, and every reversal halves the step. The estimate is the
// median of the rates at the reversals, which discounts single probes
// that pass or fail by chance near the knee.
func searchMaxRPS(ctx context.Context, s serveSpec, rig *fleetRig, m *mix, pool *reqPool, start float64, deadline time.Time, record func(*phase)) (float64, int) {
	rps, step := start, 0.25
	var reversals []float64
	lastPass, lastOK, probes := 0.0, false, 0
	for probes < 4 || time.Now().Add(s.probe).Before(deadline) {
		// A backlog of four limits' worth of requests can no longer
		// meet the limit: stop sending rather than overload the fleet.
		abort := int64(rps*s.limitMs/1000*4) + 64
		ph := openLoop(ctx, rig.handler, "probe", rps, phaseLen(rps, s.probe), m, pool, nil, 0, abort)
		record(ph)
		ok, _ := ph.passes(s.limitMs)
		if ok {
			lastPass = rps
		}
		if probes > 0 && ok != lastOK {
			reversals = append(reversals, rps)
			step = max(step/2, 0.01)
		}
		lastOK = ok
		probes++
		if ok {
			rps *= 1 + step
		} else {
			rps /= 1 + step
		}
	}
	if len(reversals) < 2 {
		return lastPass, probes
	}
	return median(reversals), probes
}

// runServeFleet is the serve-fleet workload.
func runServeFleet(ctx context.Context, o runOpts, s serveSpec, r *result) error {
	bench, err := etalstm.BenchmarkByName(s.bench)
	if err != nil {
		return err
	}
	cfg := bench.Scaled(s.hiddenDiv, 1<<20, 1<<20).Cfg
	rng := rand.New(rand.NewPCG(o.seed, 0x5e57e))
	pool, err := newReqPool(s, cfg.InputSize, rng)
	if err != nil {
		return err
	}

	// Set-up, several times; the last fleet serves the run.
	var setups, loads []float64
	var rig *fleetRig
	for i := 0; i < s.setups; i++ {
		if rig != nil {
			rig.tearDown()
		}
		if rig, err = standUp(ctx, s, cfg, o.seed, o.out, o.tracer); err != nil {
			return fmt.Errorf("serve-fleet set-up: %w", err)
		}
		setups = append(setups, rig.setup.Seconds())
		loads = append(loads, rig.loadMs...)
	}
	defer rig.tearDown()

	m := newMix(s, rng)
	window := time.Duration(o.seconds) * time.Second
	deadline := time.Now().Add(window)
	var all []*phase
	record := func(ph *phase) {
		all = append(all, ph)
		lat, failed := ph.latencies()
		p50, _ := percentile(lat, 0.5)
		p99, _ := percentile(lat, 0.99)
		fmt.Fprintf(os.Stderr, "perfbench: %-12s %7.1f req/s offered, %6d sent, %d failed, p50 %.2f ms, p99 %.2f ms, aborted %v\n",
			ph.name, ph.rps, len(ph.reqs), failed, p50, p99, ph.aborted)
	}

	// Warm-up: connections, arenas and the batcher's pools fill before
	// anything is timed.
	record(openLoop(ctx, rig.handler, "warm", s.rates[1].rps, window/30, m, pool, nil, 0, 0))

	// The timed intervals. Untraced, the mid rate runs as three windows
	// interleaved with the others and with three saturation bursts, so
	// the end-to-end latencies and throughput sample the whole run
	// rather than one stretch of it. Traced runs give each rate one
	// window and measure the tracing overhead against an untraced pass
	// at the mid rate.
	type slot struct {
		rt     rate
		dur    time.Duration
		traced bool
		sat    bool // a closed-loop saturation burst instead of a rate
	}
	low, mid, high := s.rates[0], s.rates[1], s.rates[2]
	var plan []slot
	if o.trace {
		d := window / 5
		plan = []slot{{rt: mid, dur: d}, {rt: low, dur: d, traced: true}, {rt: mid, dur: d, traced: true}, {rt: high, dur: d, traced: true}}
	} else {
		w := func(rt rate) slot { return slot{rt: rt, dur: time.Duration(float64(window) * rt.share)} }
		sat := slot{dur: time.Duration(float64(window) * s.satShare), sat: true}
		plan = []slot{w(mid), sat, w(low), w(mid), sat, w(high), w(mid), sat}
	}
	byRate := make(map[string][]*phase)
	var untracedMid *phase
	var mems []float64
	var satDone int
	var satTime time.Duration
	for _, sl := range plan {
		if sl.sat {
			ph, done, counted := closedLoop(ctx, rig.handler, s.clients, sl.dur, m, pool)
			record(ph)
			satDone, satTime = satDone+done, satTime+counted
			continue
		}
		var tr *tracer
		if sl.traced {
			tr = o.tracer
		}
		var stop func() int
		if tr != nil && sl.rt.name == "high" {
			stop = sampleQueueDepth(rig.servers)
		}
		before := batchTotals(rig.servers)
		o.mem.take()
		rig.tracing.Store(sl.traced)
		ph := openLoop(ctx, rig.handler, sl.rt.name, sl.rt.rps, phaseLen(sl.rt.rps, sl.dur), m, pool, tr, s.checkSample, 0)
		rig.tracing.Store(false)
		ph.memMB = o.mem.take()
		mems = append(mems, ph.memMB)
		record(ph)
		if o.trace && !sl.traced {
			untracedMid = ph
			continue
		}
		byRate[sl.rt.name] = append(byRate[sl.rt.name], ph)
		if stop != nil {
			r.layer("serve.queue_depth_max", float64(stop()))
			after := batchTotals(rig.servers)
			r.layer("serve.mean_batch", (after[0]-before[0])/(after[1]-before[1]))
		}
	}

	if !o.trace {
		r.set("throughput_per_s", float64(satDone)/satTime.Seconds(), satDone)
		maxRPS, probes := searchMaxRPS(ctx, s, rig, m, pool, high.rps, deadline, record)
		r.report("max_rps", "1/s", maxRPS, probes)
	}

	if err := fleetChecks(r, rig.net, pool, byRate, all); err != nil {
		return err
	}

	// End-to-end metrics. Each rate reports its p50 and p99 pooled over
	// its windows; the end-to-end latency is the mid rate's p50.
	for _, ph := range all {
		_, failed := ph.latencies()
		r.attempted += len(ph.reqs)
		r.failed += failed
	}
	var late []float64
	for _, rt := range s.rates {
		var lat []float64
		var failed, sent int
		for _, ph := range byRate[rt.name] {
			l, f := ph.latencies()
			lat = append(lat, l...)
			failed += f
			sent += len(ph.reqs)
			for _, rq := range ph.reqs {
				late = append(late, ms(rq.late))
			}
		}
		p50, _ := percentile(lat, 0.5)
		p99, err := mustPercentile("lat_ms."+rt.name, lat, 0.99)
		if err != nil {
			return err
		}
		r.report("lat_p50_ms."+rt.name, "ms", p50, len(lat))
		r.report("lat_p99_ms."+rt.name, "ms", p99, len(lat))
		r.report("fail_frac."+rt.name, "frac", float64(failed)/float64(sent), sent)
		if rt.name == "mid" {
			p90, _ := percentile(lat, 0.9)
			r.set("latency_ms_p50", p50, len(lat))
			r.report("lat_p90_ms.mid", "ms", p90, len(lat))
		}
	}
	r.set("peak_mem_mb", median(mems), len(mems))
	r.report("peak_rss_mb", "MB", peakRSSMB(), 1)
	r.set("setup_s", median(setups), len(setups))
	r.report("fail_frac", "frac", float64(r.failed)/float64(r.attempted), r.attempted)

	// Per-layer metrics.
	lateP99, _ := percentile(late, 0.99)
	r.layer("loadgen.late_ms_p99", lateP99)
	r.layer("persist.load_ms", median(loads))
	counts := make(map[string]int)
	for _, ph := range all {
		for _, rq := range ph.reqs {
			if rq.replica != "" {
				counts[rq.replica]++
			}
		}
	}
	r.layer("fleet.load_imbalance", imbalance(counts, s.replicas))
	r.report("fleet.load_imbalance", "ratio", imbalance(counts, s.replicas), len(counts))
	st := rig.router.Status()
	r.layer("fleet.retries", float64(st.Retries))
	var rejected int64
	for _, srv := range rig.servers {
		rejected += srv.Stats().Rejected
	}
	r.layer("serve.rejected", float64(rejected))
	if o.trace {
		if err := fleetTraceMetrics(r, byRate, untracedMid); err != nil {
			return err
		}
	}
	tensorProbe(r, s.tensorBatch, cfg.Hidden)
	return nil
}

// fleetChecks are the output checks of serve-fleet: a sample of
// stateless responses against etalstm.Infer on the same sequences,
// nothing failing at the low rate, and every response naming its
// replica.
func fleetChecks(r *result, net *etalstm.Network, pool *reqPool, byRate map[string][]*phase, all []*phase) error {
	var seqs [][][]float32
	var got []*request
	for _, phs := range byRate {
		for _, ph := range phs {
			for _, rq := range ph.reqs {
				if rq.body != nil && rq.status == http.StatusOK {
					seqs = append(seqs, pool.seqs[rq.seq])
					got = append(got, rq)
				}
			}
		}
	}
	want, err := etalstm.Infer(net, seqs)
	if err != nil {
		return err
	}
	mismatch := 0
	for i, rq := range got {
		var resp struct {
			Output []float32 `json:"output"`
		}
		if err := json.Unmarshal(rq.body, &resp); err != nil || !sameFloats(resp.Output, want[i].Output) {
			mismatch++
		}
	}
	r.check("stateless responses equal etalstm.Infer on the same sequences",
		len(got) > 0 && mismatch == 0, "%d of %d sampled responses differ", mismatch, len(got))
	_, lowFailed := byRate["low"][0].latencies()
	r.check("nothing fails at the low rate", lowFailed == 0, "%d failed", lowFailed)
	noReplica := 0
	for _, ph := range all {
		for _, rq := range ph.reqs {
			if rq.status == http.StatusOK && rq.replica == "" {
				noReplica++
			}
		}
	}
	r.check("every routed response names its replica", noReplica == 0, "%d without X-Eta-Replica", noReplica)
	return nil
}

// fleetTraceMetrics matches each replica span to the router span that
// forwarded the same body, derives the hop and handler times on the
// high phase, and builds the per-request layer breakdown.
func fleetTraceMetrics(r *result, byRate map[string][]*phase, untracedMid *phase) error {
	spans := r.spans.snapshot()
	routerByKey := make(map[string][]span)
	for _, sp := range spans {
		if sp.Name == "fleet.router" {
			routerByKey[sp.Key] = append(routerByKey[sp.Key], sp)
		}
	}
	unmatched := 0
	for i, sp := range spans {
		if sp.Name != "serve.replica" {
			continue
		}
		for _, rs := range routerByKey[sp.Key] {
			if rs.Start <= sp.Start && sp.End <= rs.End {
				spans[i].Parent = rs.ID
				break
			}
		}
		if spans[i].Parent == 0 {
			unmatched++
		}
	}
	r.check("every replica span matches the router span that forwarded its body", unmatched == 0,
		"%d unmatched replica spans", unmatched)
	self := selfTimes(spans)

	// Hop and handler times on the high phase.
	high := make(map[int64]bool)
	for _, rq := range byRate["high"][0].reqs {
		high[rq.router.id] = true
	}
	replicaOf := make(map[int64]span)
	for _, sp := range spans {
		if sp.Name == "serve.replica" && sp.Parent != 0 {
			replicaOf[sp.Parent] = sp
		}
	}
	var hop, handler []float64
	for _, sp := range spans {
		if sp.Name == "fleet.router" && high[sp.ID] {
			hop = append(hop, float64(self[sp.ID])/1e6)
			if rs, ok := replicaOf[sp.ID]; ok {
				handler = append(handler, float64(rs.dur())/1e6)
			}
		}
	}
	hop50, _ := percentile(hop, 0.5)
	hop99, err := mustPercentile("fleet.hop_ms", hop, 0.99)
	if err != nil {
		return err
	}
	h50, _ := percentile(handler, 0.5)
	h99, err := mustPercentile("serve.handler_ms", handler, 0.99)
	if err != nil {
		return err
	}
	r.layer("fleet.hop_ms_p50", hop50)
	r.layer("fleet.hop_ms_p99", hop99)
	r.layer("serve.handler_ms_p50", h50)
	r.layer("serve.handler_ms_p99", h99)

	// Per-request breakdown over every traced request: the generator's
	// lateness, the router hop, the replica handler, and what is left.
	var wall int64
	byName := make(map[string]int64)
	for _, sp := range spans {
		byName[sp.Name] += self[sp.ID]
		if sp.Name == "loadgen.request" {
			wall += sp.dur()
		}
	}
	var late time.Duration
	for _, phs := range byRate {
		for _, rq := range phs[0].reqs {
			late += rq.late
		}
	}
	r.rows = breakdown(wall, []row{
		{"loadgen.late", ms(late)},
		{"fleet.hop", float64(byName["fleet.router"]) / 1e6},
		{"serve.handler", float64(byName["serve.replica"]) / 1e6},
	})
	r.wallMs = float64(wall) / 1e6

	tracedLat, _ := byRate["mid"][0].latencies()
	untracedLat, _ := untracedMid.latencies()
	r.layer("obs.trace_overhead_frac", median(tracedLat)/median(untracedLat)-1)
	return nil
}

// batchTotals sums, over the replicas, the requests swept in batches
// and the number of batches.
func batchTotals(servers []*etalstm.Server) [2]float64 {
	var t [2]float64
	for _, srv := range servers {
		st := srv.Stats()
		t[0] += st.MeanBatch * float64(st.Batches)
		t[1] += float64(st.Batches)
	}
	return t
}

// sampleQueueDepth polls the replicas' queue depth every few
// milliseconds until the returned stop function is called, which
// returns the largest depth seen on any replica.
func sampleQueueDepth(servers []*etalstm.Server) (stop func() int) {
	quit := make(chan struct{})
	res := make(chan int, 1)
	go func() {
		best := 0
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				res <- best
				return
			case <-t.C:
				for _, srv := range servers {
					best = max(best, srv.Stats().QueueDepth)
				}
			}
		}
	}()
	return func() int { close(quit); return <-res }
}

// imbalance is the largest replica's share of requests over the mean
// share.
func imbalance(counts map[string]int, replicas int) float64 {
	total, most := 0, 0
	for _, n := range counts {
		total += n
		most = max(most, n)
	}
	if total == 0 {
		return 0
	}
	return float64(most) / (float64(total) / float64(replicas))
}

func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
