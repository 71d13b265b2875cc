package main

import (
	"bytes"
	"crypto/sha256"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"etalstm"
)

// This file holds the timing wrappers the benchmark puts around the
// program's public seams. They only measure: every call goes straight
// to the wrapped implementation with its arguments unchanged.

// stepClock times one trainer's optimizer steps from outside. A step
// ends when Optimizer.Step returns; it began when the previous step
// ended, or when RunEpoch was called for the first step of an epoch.
// The wrappers below all report to the clock of the trainer they serve,
// and a trainer calls its seams from one goroutine, so the clock needs
// no lock.
type stepClock struct {
	tr     *tracer
	name   string // key prefix: worker and trial
	epoch  live   // the open RunEpoch span
	steps  int
	last   time.Time
	stepMs []float64

	batchNs, optNs, reduceNs int64
	reduceMs                 []float64
	reduceSpan               string // span name of the gradient exchange
}

func (c *stepClock) key() string { return c.name + "/s" + strconv.Itoa(c.steps) }

// runEpoch times one RunEpoch call as the parent of the step's seam
// spans.
func (c *stepClock) runEpoch(run func() error) error {
	c.epoch = c.tr.start("core.epoch", c.name, 0)
	c.last = time.Now()
	err := run()
	c.epoch.end()
	return err
}

// timedProvider wraps Provider.Batch.
type timedProvider struct {
	inner etalstm.Provider
	c     *stepClock
}

func (p timedProvider) NumBatches() int { return p.inner.NumBatches() }

func (p timedProvider) Batch(i int) etalstm.Batch {
	sp := p.c.tr.start("train.batch", p.c.key(), p.c.epoch.id)
	t0 := time.Now()
	b := p.inner.Batch(i)
	p.c.batchNs += time.Since(t0).Nanoseconds()
	sp.end()
	return b
}

// timedOptimizer wraps Optimizer.Step, whose return closes a step.
type timedOptimizer struct {
	inner etalstm.Optimizer
	c     *stepClock
}

func (o timedOptimizer) Name() string { return o.inner.Name() }

func (o timedOptimizer) Step(net *etalstm.Network, g *etalstm.Gradients) {
	c := o.c
	sp := c.tr.start("train.optimizer", c.key(), c.epoch.id)
	t0 := time.Now()
	o.inner.Step(net, g)
	end := time.Now()
	sp.endAt(end)
	c.optNs += end.Sub(t0).Nanoseconds()
	c.stepMs = append(c.stepMs, ms(end.Sub(c.last)))
	c.last = end
	c.steps++
}

// timedSync wraps GradientSync.Reduce.
type timedSync struct {
	inner etalstm.GradientSync
	c     *stepClock
}

func (s timedSync) Reduce(local []*etalstm.Gradients) (*etalstm.Gradients, int, error) {
	c := s.c
	sp := c.tr.start(c.reduceSpan, c.key(), c.epoch.id)
	t0 := time.Now()
	g, n, err := s.inner.Reduce(local)
	d := time.Since(t0)
	sp.end()
	c.reduceNs += d.Nanoseconds()
	c.reduceMs = append(c.reduceMs, ms(d))
	return g, n, err
}

func (s timedSync) Close() error { return s.inner.Close() }

// timedHandler wraps a replica's http.Handler: while on, each inference
// request gets a span keyed by the digest of its body, which is how a
// replica's span finds the router span that forwarded the same body.
type timedHandler struct {
	inner http.Handler
	tr    *tracer
	name  string
	on    *atomic.Bool
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tr == nil || !h.on.Load() || r.URL.Path != "/v1/infer" {
		h.inner.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	sp := h.tr.start(h.name, bodyDigest(body), 0)
	h.inner.ServeHTTP(w, r)
	sp.end()
}

func bodyDigest(body []byte) string {
	sum := sha256.Sum256(body)
	return string(sum[:8])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
