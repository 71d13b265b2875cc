package main

import (
	"math/rand/v2"
	"time"

	"etalstm/internal/tensor"
)

// probeBudget is how long each kernel is timed.
const probeBudget = 150 * time.Millisecond

// tensorProbe times the three cell kernels at a workload's recurrent
// cell shape — batch×hidden activations against hidden×hidden weights,
// the shape of every U-gate product and of every W-gate product above
// the first layer:
//
//	MatMul           h·U        (FW-MatMul)
//	MatMulTransB     δgate·Uᵀ   (BP-MatMul, propagated gradient)
//	AddMatMulTransA  U' += hᵀ·δgate (BP-MatMul, weight gradient)
//
// It reports GFLOP/s per kernel, the op count over all three, and the
// bytes the calls compute on (operands read plus result written, counted
// from tensor sizes, not measured).
func tensorProbe(r *result, batch, hidden int) {
	rng := rand.New(rand.NewPCG(uint64(batch), uint64(hidden)))
	fill := func(rows, cols int) *tensor.Matrix {
		m := tensor.New(rows, cols)
		for i := range m.Data {
			m.Data[i] = float32(rng.Float64()*2 - 1)
		}
		return m
	}
	act, grad := fill(batch, hidden), fill(batch, hidden)
	w, acc := fill(hidden, hidden), fill(hidden, hidden)
	out := tensor.New(batch, hidden)
	flops := 2 * float64(batch) * float64(hidden) * float64(hidden)
	actBytes := float64(4 * batch * hidden)
	wBytes := float64(4 * hidden * hidden)

	var ops int
	var bytes float64
	kernels := []struct {
		name  string
		bytes float64 // per call
		call  func()
	}{
		{"tensor.matmul_gflops", 2*actBytes + wBytes, func() { tensor.MatMul(out, act, w) }},
		{"tensor.matmul_transb_gflops", 2*actBytes + wBytes, func() { tensor.MatMulTransB(out, grad, w) }},
		{"tensor.addmatmul_transa_gflops", 2*actBytes + 2*wBytes, func() { tensor.AddMatMulTransA(acc, act, grad) }},
	}
	for _, k := range kernels {
		k.call() // first touch outside the timing
		n := 0
		t0 := time.Now()
		for n < 20 || time.Since(t0) < probeBudget {
			k.call()
			n++
		}
		el := time.Since(t0)
		r.layer(k.name, flops*float64(n)/el.Seconds()/1e9)
		ops += n
		bytes += k.bytes * float64(n)
	}
	r.layer("tensor.probe_ops", float64(ops))
	r.layer("tensor.probe_mb", bytes/1e6)
}
