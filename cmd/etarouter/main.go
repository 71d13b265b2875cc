// Command etarouter fronts a fleet of etaserve replicas: it routes
// sessions to replicas by consistent hashing (membership churn remaps
// only ~1/N of sessions), spreads stateless requests by body digest
// with a load tiebreak, ejects unhealthy replicas with hysteresis and
// drains their sessions to successors, and rolls checkpoint hot-swaps
// across the fleet one replica at a time (see DESIGN.md §14).
//
// Usage:
//
//	etaserve -ckpt net.ckpt -admin -addr :8081 &
//	etaserve -ckpt net.ckpt -admin -addr :8082 &
//	etarouter -replicas http://localhost:8081,http://localhost:8082 -addr :8080
//
// Roll a new checkpoint across a running fleet:
//
//	etarouter -swap next.ckpt -target http://localhost:8080
//
// Benchmark the fleet with Zipf-skewed session traffic:
//
//	etarouter -loadgen -target http://localhost:8080 -conc 64 -n 2048 -sessions 512 -zipf 1.1 -session-frac 0.15
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"etalstm/internal/fleet"
	"etalstm/internal/obs"
	"etalstm/internal/rtrace"
	"etalstm/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "etarouter:", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags come from
// args, output goes to w, failures return instead of exiting.
// Connection limits of the router's HTTP listener: a client has
// readHeaderTimeout to finish sending its request headers, and a
// keep-alive connection idle for idleTimeout is closed. Tests may lower
// them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("etarouter", flag.ContinueOnError)
	var (
		replicas = fs.String("replicas", "", "comma-separated etaserve base URLs (required to serve)")
		addr     = fs.String("addr", "127.0.0.1:8090", "listen address")
		vnodes   = fs.Int("vnodes", 0, "virtual nodes per replica (0 = 128)")
		probeInt = fs.Duration("probe-interval", 0, "health probe period (0 = 1s)")
		probeTO  = fs.Duration("probe-timeout", 0, "per-probe deadline (0 = 500ms)")
		eject    = fs.Int("eject-after", 0, "consecutive probe failures before ejection (0 = 3)")
		recover_ = fs.Int("recover-after", 0, "consecutive probe successes before re-admission (0 = 2)")
		timeout  = fs.Duration("timeout", 0, "per-forwarded-request deadline (0 = 10s)")
		traceOn  = fs.Bool("trace", true, "record routing traces in the flight recorder at GET /debug/traces (/debug/traces/{id} merges replica spans); SIGQUIT dumps it to stderr")

		swap   = fs.String("swap", "", "roll this checkpoint across the fleet and exit")
		target = fs.String("target", "", "running router base URL (for -swap and -loadgen)")

		loadgen    = fs.Bool("loadgen", false, "generate load against -target instead of routing")
		conc       = fs.Int("conc", 0, "loadgen: concurrent clients (0 = 32)")
		n          = fs.Int("n", 0, "loadgen: total requests (0 = 512)")
		seq        = fs.Int("seq", 0, "loadgen: timesteps per request (0 = 8)")
		sessions   = fs.Int("sessions", 0, "loadgen: spread requests over this many session ids")
		zipf       = fs.Float64("zipf", 0, "loadgen: Zipf skew exponent over session ranks (0 = uniform round-robin)")
		sessFrac   = fs.Float64("session-frac", 0, "loadgen: fraction of requests carrying a session id (0 = 1.0)")
		seed       = fs.Uint64("seed", 1, "loadgen: input seed")
		traceEvery = fs.Int("trace-every", 0, "loadgen: mint a sampled traceparent on every Nth request; the report lists sample trace ids resolvable at the target's /debug/traces (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *loadgen {
		if *target == "" {
			return fmt.Errorf("-loadgen requires -target")
		}
		rep, err := serve.RunLoad(ctx, serve.LoadOptions{
			Target: *target, Concurrency: *conc, Requests: *n, SeqLen: *seq,
			Sessions: *sessions, ZipfS: *zipf, SessionFrac: *sessFrac, Seed: *seed,
			TraceEvery: *traceEvery,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, rep)
		return nil
	}

	if *swap != "" {
		return runSwap(ctx, w, *swap, *target, *replicas, *timeout)
	}

	if *replicas == "" {
		return fmt.Errorf("-replicas is required (or use -swap / -loadgen)")
	}
	fopts := fleet.Options{
		Replicas:       splitReplicas(*replicas),
		VNodes:         *vnodes,
		ProbeInterval:  *probeInt,
		ProbeTimeout:   *probeTO,
		EjectAfter:     *eject,
		RecoverAfter:   *recover_,
		RequestTimeout: *timeout,
		Log:            obs.NewLogger(os.Stderr),
	}
	if *traceOn {
		fopts.Tracer = rtrace.New(rtrace.Options{Process: "etarouter"})
		defer fopts.Tracer.DumpOnSignal(os.Stderr)()
	}
	rt, err := fleet.New(fopts)
	if err != nil {
		return err
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "routing %d replicas: %s\n", len(splitReplicas(*replicas)), *replicas)
	fmt.Fprintf(w, "listening on http://%s\n", ln.Addr())

	srv := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return err
		}
		<-done
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			return err
		}
	}
	st := rt.Status()
	fmt.Fprintf(w, "drained: %d requests, %d errors, %d failovers, %d ejections, %d sessions moved (%d lost)\n",
		st.Requests, st.Errors, st.Retries, st.Ejections, st.SessionsMoved, st.SessionsLost)
	return nil
}

// runSwap rolls a checkpoint across the fleet: through a running
// router's /admin/swap when -target is set, or by standing up an
// ephemeral (prober-less) router over -replicas when not.
func runSwap(ctx context.Context, w io.Writer, ckpt, target, replicas string, timeout time.Duration) error {
	var rep fleet.SwapReport
	switch {
	case target != "":
		body, err := json.Marshal(map[string]string{"path": ckpt})
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/admin/swap", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("swap failed: HTTP %d: %s", resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			return fmt.Errorf("bad swap report: %w", err)
		}
	case replicas != "":
		rt, err := fleet.New(fleet.Options{
			Replicas:       splitReplicas(replicas),
			ProbeInterval:  -1, // one-shot roll: no background prober
			RequestTimeout: timeout,
		})
		if err != nil {
			return err
		}
		defer rt.Close()
		rep, err = rt.Swap(ctx, ckpt)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("-swap requires -target (running router) or -replicas (direct roll)")
	}
	for _, r := range rep.Rolled {
		fmt.Fprintf(w, "swapped %s -> generation %d (digest %.12s)\n", r.URL, r.Generation, r.Digest)
	}
	fmt.Fprintf(w, "fleet on digest %s (%d replicas)\n", rep.Digest, len(rep.Rolled))
	return nil
}

func splitReplicas(s string) []string {
	var out []string
	for _, r := range strings.Split(s, ",") {
		if r = strings.TrimSpace(r); r != "" {
			out = append(out, r)
		}
	}
	return out
}
