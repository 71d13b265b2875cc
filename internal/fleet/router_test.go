package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etalstm/internal/obs"
)

// fakeReplica imitates an etaserve replica's HTTP surface closely
// enough to route against: /v1/model geometry, /v1/infer with an
// optional fixed service capacity, controllable /readyz, and a
// /metrics page carrying the queue-depth gauge the prober scrapes.
type fakeReplica struct {
	hs *httptest.Server

	failReady atomic.Bool
	shed      atomic.Bool  // 429 every infer with a Retry-After hint
	depth     atomic.Int64 // advertised queue depth

	mu       sync.Mutex
	requests int
	sessions map[string]int

	// sem + serviceTime model a replica with fixed capacity: capacity
	// concurrent requests, each taking serviceTime. Zero means answer
	// immediately.
	sem         chan struct{}
	serviceTime time.Duration
}

func newFakeReplica(t testing.TB, capacity int, serviceTime time.Duration) *fakeReplica {
	t.Helper()
	f := &fakeReplica{sessions: make(map[string]int), serviceTime: serviceTime}
	if capacity > 0 {
		f.sem = make(chan struct{}, capacity)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/model", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"input_size":4,"hidden_size":8,"layers":2,"out_size":3,"loss":"single","max_seq_len":8,"max_batch":32}`)
	})
	mux.HandleFunc("POST /v1/infer", func(w http.ResponseWriter, r *http.Request) {
		if f.shed.Load() {
			w.Header().Set("Retry-After", "3")
			http.Error(w, "shedding", http.StatusTooManyRequests)
			return
		}
		body, _ := io.ReadAll(r.Body)
		var req struct {
			Session string `json:"session"`
		}
		json.Unmarshal(body, &req)
		if f.sem != nil {
			f.sem <- struct{}{}
			time.Sleep(f.serviceTime)
			<-f.sem
		}
		f.mu.Lock()
		f.requests++
		if req.Session != "" {
			f.sessions[req.Session]++
		}
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"output":[0.1,0.2,0.3]}`)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if f.failReady.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "etalstm_serve_queue_depth %d\n", f.depth.Load())
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"sessions":[]}`)
	})
	mux.HandleFunc("POST /v1/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"generation":2,"digest":"0a0b0c0d0e0f"}`)
	})
	f.hs = httptest.NewServer(mux)
	t.Cleanup(f.hs.Close)
	return f
}

func (f *fakeReplica) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.requests
}

func (f *fakeReplica) sessionCount(id string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sessions[id]
}

// testRouter builds a router with the background prober disabled so
// tests drive membership deterministically through ProbeOnce.
func testRouter(t testing.TB, opts Options, replicas ...*fakeReplica) *Router {
	t.Helper()
	for _, f := range replicas {
		opts.Replicas = append(opts.Replicas, f.hs.URL)
	}
	opts.ProbeInterval = -1
	if opts.Log == nil {
		opts.Log = obs.NewLoggerFunc(t.Logf)
	}
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func postInferJSON(t testing.TB, client *http.Client, target string, session string, k int) int {
	t.Helper()
	body := fmt.Sprintf(`{"inputs":[[0.1,0.2,0.3,%d.5]]`, k%7)
	if session != "" {
		body += fmt.Sprintf(`,"session":%q`, session)
	}
	body += "}"
	resp, err := client.Post(target+"/v1/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func TestRouterRequiresReplicas(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New with no replicas must fail")
	}
}

// TestRouterStickyRouting: every request of one session lands on one
// replica, and many sessions spread over all replicas.
func TestRouterStickyRouting(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, 0, 0), newFakeReplica(t, 0, 0), newFakeReplica(t, 0, 0)}
	rt := testRouter(t, Options{}, fakes...)
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	for i := 0; i < 12; i++ {
		if code := postInferJSON(t, hs.Client(), hs.URL, "pinned", i); code != 200 {
			t.Fatalf("request %d: HTTP %d", i, code)
		}
	}
	owners := 0
	for _, f := range fakes {
		if n := f.sessionCount("pinned"); n > 0 {
			owners++
			if n != 12 {
				t.Fatalf("owner got %d/12 requests for the pinned session", n)
			}
		}
	}
	if owners != 1 {
		t.Fatalf("session landed on %d replicas, want exactly 1", owners)
	}

	for i := 0; i < 96; i++ {
		postInferJSON(t, hs.Client(), hs.URL, fmt.Sprintf("spread-%d", i), i)
	}
	for i, f := range fakes {
		if f.count() == 0 {
			t.Fatalf("replica %d got no traffic across 96 sessions", i)
		}
	}
}

// TestRouterStatelessSpread: session-less requests spread over the
// fleet by body digest with a load tiebreak. The 90 requests carry 90
// distinct bodies, so the spread measures the digest hash over the
// ring rather than how a handful of repeated keys happen to land; and
// sequential requests leave every in-flight count at zero, so the
// tiebreak never fires and each request must reach its key's ring
// owner.
func TestRouterStatelessSpread(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, 0, 0), newFakeReplica(t, 0, 0), newFakeReplica(t, 0, 0)}
	rt := testRouter(t, Options{}, fakes...)
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	byURL := make(map[string]*fakeReplica, len(fakes))
	for _, f := range fakes {
		byURL[f.hs.URL] = f
	}
	for i := 0; i < 90; i++ {
		body := fmt.Sprintf(`{"inputs":[[0.1,0.2,0.3,%d.5]]}`, i)
		sum := sha256.Sum256([]byte(body))
		rt.mu.Lock()
		owner := rt.members[rt.ring.LookupN("d:"+hex.EncodeToString(sum[:8]), 2)[0]].url
		rt.mu.Unlock()
		before := byURL[owner].count()
		resp, err := hs.Client().Post(hs.URL+"/v1/infer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: HTTP %d", i, resp.StatusCode)
		}
		if got := byURL[owner].count(); got != before+1 {
			t.Fatalf("request %d did not reach its ring owner %s under tied in-flight load", i, owner)
		}
	}
	for i, f := range fakes {
		if f.count() < 10 {
			t.Fatalf("replica %d got %d/90 stateless requests — not spread", i, f.count())
		}
	}
}

// TestRouterFailover: a replica dying mid-traffic (no probe round has
// noticed yet) must not surface errors — requests fail over to ring
// successors.
func TestRouterFailover(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, 0, 0), newFakeReplica(t, 0, 0), newFakeReplica(t, 0, 0)}
	rt := testRouter(t, Options{}, fakes...)
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	fakes[1].hs.Close() // dies without warning
	for i := 0; i < 48; i++ {
		if code := postInferJSON(t, hs.Client(), hs.URL, fmt.Sprintf("s-%d", i), i); code != 200 {
			t.Fatalf("request %d after replica death: HTTP %d", i, code)
		}
	}
	if rt.retries.Value() == 0 {
		t.Fatal("no failovers recorded though a replica is dead")
	}
	if rt.errs.Value() != 0 {
		t.Fatalf("%d requests failed every candidate; failover should have saved them", rt.errs.Value())
	}
}

// TestProberHysteresis drives the state machine tick by tick:
// 1 failure degrades (still routed), EjectAfter=3 ejects and shrinks
// the ring within the remap bound, RecoverAfter=2 successes re-admit.
func TestProberHysteresis(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, 0, 0), newFakeReplica(t, 0, 0), newFakeReplica(t, 0, 0)}
	rt := testRouter(t, Options{EjectAfter: 3, RecoverAfter: 2}, fakes...)
	ctx := context.Background()

	stateOf := func(url string) string {
		for _, r := range rt.Status().Replicas {
			if r.URL == url {
				return r.State
			}
		}
		return "missing"
	}
	victim := fakes[1]

	rt.ProbeOnce(ctx)
	if got := stateOf(victim.hs.URL); got != "healthy" {
		t.Fatalf("initial probe: %s, want healthy", got)
	}

	victim.failReady.Store(true)
	rt.ProbeOnce(ctx)
	if got := stateOf(victim.hs.URL); got != "degraded" {
		t.Fatalf("after 1 failure: %s, want degraded", got)
	}
	if rt.Status().RingMembers != 3 {
		t.Fatal("degraded replica must stay in the ring")
	}

	rt.ProbeOnce(ctx)
	if got := stateOf(victim.hs.URL); got != "degraded" {
		t.Fatalf("after 2 failures: %s, want degraded (EjectAfter=3)", got)
	}

	rt.ProbeOnce(ctx)
	if got := stateOf(victim.hs.URL); got != "ejected" {
		t.Fatalf("after 3 failures: %s, want ejected", got)
	}
	if n := rt.Status().RingMembers; n != 2 {
		t.Fatalf("ring has %d members after ejection, want 2", n)
	}
	if got := rt.ejections.Value(); got != 1 {
		t.Fatalf("ejections counter = %d, want 1", got)
	}
	if frac := rt.lastRemap.Value(); frac <= 0 || frac > 1.5/3.0 {
		t.Fatalf("ejection remapped %.4f of keys, want in (0, 0.5]", frac)
	}

	// A flap — one good probe — must NOT re-admit (RecoverAfter=2).
	victim.failReady.Store(false)
	rt.ProbeOnce(ctx)
	if got := stateOf(victim.hs.URL); got != "ejected" {
		t.Fatalf("after 1 success: %s, want still ejected", got)
	}
	rt.ProbeOnce(ctx)
	if got := stateOf(victim.hs.URL); got != "healthy" {
		t.Fatalf("after 2 successes: %s, want healthy", got)
	}
	if n := rt.Status().RingMembers; n != 3 {
		t.Fatalf("ring has %d members after rejoin, want 3", n)
	}
	if got := rt.rejoins.Value(); got != 1 {
		t.Fatalf("rejoins counter = %d, want 1", got)
	}

	// Degraded -> healthy on a single success (no ejection happened).
	victim.failReady.Store(true)
	rt.ProbeOnce(ctx)
	victim.failReady.Store(false)
	rt.ProbeOnce(ctx)
	if got := stateOf(victim.hs.URL); got != "healthy" {
		t.Fatalf("degraded replica after 1 success: %s, want healthy", got)
	}
}

// TestRouterEndpoints smoke-tests the router's own HTTP surface.
func TestRouterEndpoints(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, 0, 0), newFakeReplica(t, 0, 0)}
	fakes[0].depth.Store(7)
	rt := testRouter(t, Options{}, fakes...)
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	for _, path := range []string{"/healthz", "/readyz", "/fleet", "/statz", "/v1/model"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: HTTP %d", path, resp.StatusCode)
		}
	}

	postInferJSON(t, hs.Client(), hs.URL, "m", 1)
	rt.ProbeOnce(context.Background()) // scrape queue depths
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		metricRequests, metricReplicas, metricSwapGen, metricScaleAdvice,
		metricReplicaReqs, metricReplicaQueueDepth, `replica="`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if v, ok := parseGauge(string(text), metricReplicas); !ok || v != 2 {
		t.Fatalf("replicas gauge = %v/%v, want 2", v, ok)
	}

	var st FleetStatus
	resp, err = http.Get(hs.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Replicas) != 2 || st.RingMembers != 2 {
		t.Fatalf("fleet status: %+v", st)
	}
	found := false
	for _, r := range st.Replicas {
		if r.URL == fakes[0].hs.URL && r.QueueDepth == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("scraped queue depth not in /fleet: %+v", st.Replicas)
	}

	// Malformed bodies are the router's 400, not a replica's.
	resp, err = http.Post(hs.URL+"/v1/infer", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestRouterReadyzEmpty: with every replica ejected the router itself
// reports not ready.
func TestRouterReadyzEmpty(t *testing.T) {
	f := newFakeReplica(t, 0, 0)
	rt := testRouter(t, Options{EjectAfter: 1}, f)
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	f.failReady.Store(true)
	rt.ProbeOnce(context.Background()) // degrade
	rt.ProbeOnce(context.Background()) // eject (EjectAfter=1 means first degraded failure ejects)
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with empty fleet: HTTP %d, want 503", resp.StatusCode)
	}
	if code := postInferJSON(t, hs.Client(), hs.URL, "x", 0); code != http.StatusServiceUnavailable {
		t.Fatalf("infer with empty fleet: HTTP %d, want 503", code)
	}
}

// TestRouterBackgroundProber: with a positive ProbeInterval the
// prober runs on its own and scrapes queue depths without any
// ProbeOnce call; Close stops it cleanly.
func TestRouterBackgroundProber(t *testing.T) {
	f := newFakeReplica(t, 0, 0)
	f.depth.Store(5)
	rt, err := New(Options{
		Replicas:      []string{f.hs.URL},
		ProbeInterval: 5 * time.Millisecond,
		Log:           obs.NewLoggerFunc(t.Logf),
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := rt.Status(); len(st.Replicas) == 1 && st.Replicas[0].QueueDepth == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background prober never scraped the queue depth: %+v", rt.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	rt.Close()
	rt.Close() // idempotent
}

// TestRouterSwapEndpoint drives POST /admin/swap over HTTP; the fakes
// answer the reload with a consistent digest, so the roll succeeds and
// bumps the fleet generation.
func TestRouterSwapEndpoint(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, 0, 0), newFakeReplica(t, 0, 0)}
	rt := testRouter(t, Options{}, fakes...)
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/admin/swap", "application/json",
		strings.NewReader(`{"path":"/nonexistent/but/replicas/fake/it.ckpt"}`))
	if err != nil {
		t.Fatal(err)
	}
	var rep SwapReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("swap: HTTP %d (%+v)", resp.StatusCode, rep)
	}
	if len(rep.Rolled) != 2 || rep.Digest != "0a0b0c0d0e0f" {
		t.Fatalf("swap report: %+v", rep)
	}
	if got := rt.swapGen.Load(); got != 1 {
		t.Fatalf("swap generation = %d, want 1", got)
	}

	resp, err = http.Post(hs.URL+"/admin/swap", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("swap without path: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestRouterAllReplicasDead: with every replica unreachable (but none
// probed out yet) the router answers 502 and counts the exhaustion.
func TestRouterAllReplicasDead(t *testing.T) {
	fakes := []*fakeReplica{newFakeReplica(t, 0, 0), newFakeReplica(t, 0, 0)}
	rt := testRouter(t, Options{}, fakes...)
	hs := httptest.NewServer(rt.Handler())
	defer hs.Close()
	for _, f := range fakes {
		f.hs.Close()
	}
	if code := postInferJSON(t, hs.Client(), hs.URL, "s", 0); code != http.StatusBadGateway {
		t.Fatalf("all dead: HTTP %d, want 502", code)
	}
	if rt.errs.Value() != 1 {
		t.Fatalf("errors counter = %d, want 1", rt.errs.Value())
	}
	resp, err := http.Get(hs.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("model with all dead: HTTP %d, want 503", resp.StatusCode)
	}
}

func TestRingString(t *testing.T) {
	r := NewRing(4)
	r.Add("a")
	if got := r.String(); !strings.Contains(got, "members=1") || !strings.Contains(got, "points=4") {
		t.Fatalf("String = %q", got)
	}
}

// TestAdvisor drives the advice hysteresis table-style.
func TestAdvisor(t *testing.T) {
	cases := []struct {
		name     string
		depths   []float64
		replicas int
		want     []int
	}{
		{"calm holds", []float64{5, 5, 5, 5}, 4, []int{0, 0, 0, 0}},
		{"sustained overload advises up", []float64{20, 20, 20}, 4, []int{0, 0, 1}},
		{"burst does not flap", []float64{20, 20, 5, 20, 20}, 4, []int{0, 0, 0, 0, 0}},
		{"sustained idle advises down", []float64{0, 0, 0}, 4, []int{0, 0, -1}},
		{"never below one replica", []float64{0, 0, 0, 0}, 1, []int{0, 0, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := &advisor{up: 16, down: 1, need: 3}
			for i, d := range tc.depths {
				if got := a.tick(d, tc.replicas); got != tc.want[i] {
					t.Fatalf("tick %d (depth %.0f): advice %d, want %d", i, d, got, tc.want[i])
				}
			}
		})
	}
}
