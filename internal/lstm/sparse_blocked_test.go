package lstm

import (
	"fmt"
	"math"
	"testing"

	"etalstm/internal/tensor"
)

// refSparseGateGrads recomputes the BP-EW-P2 gate gradients of a P1 set
// (the dense expressions of BackwardFromP1), so the reference below can
// be fed the same δgate values the sparse kernel sees.
func refSparseGateGrads(p1 *P1, in BPInput) [NumGates]*tensor.Matrix {
	batch, hidden := p1.Pf.Rows, p1.Pf.Cols
	var dGate [NumGates]*tensor.Matrix
	for g := range dGate {
		dGate[g] = tensor.New(batch, hidden)
	}
	for k := 0; k < batch*hidden; k++ {
		var dh float32
		if in.DY != nil {
			dh += in.DY.Data[k]
		}
		if in.DH != nil {
			dh += in.DH.Data[k]
		}
		ds := float32(dh * p1.Ps.Data[k])
		if in.DS != nil {
			ds += in.DS.Data[k]
		}
		dGate[GateO].Data[k] = dh * p1.Po.Data[k]
		dGate[GateF].Data[k] = ds * p1.Pf.Data[k]
		dGate[GateI].Data[k] = ds * p1.Pi.Data[k]
		dGate[GateC].Data[k] = ds * p1.Pc.Data[k]
	}
	return dGate
}

// refSparseWeightGrads is the unblocked sparse weight-gradient loop:
// batch rows ascending, each row's (top-k filtered) pattern scattered
// into every δW/δU row with exact-zero activations skipped. The blocked
// column-list kernel must reproduce it bit for bit, signs of zero
// included.
func refSparseWeightGrads(grads *Grads, x, hPrev *tensor.Matrix, sp *SparseP1, dGate *[NumGates]*tensor.Matrix, topK int) {
	sel := &TopKSelector{}
	for g := Gate(0); g < NumGates; g++ {
		pl := &sp.planes[g]
		for k := 0; k < x.Rows; k++ {
			pat := pl.rowIdx(k)
			if len(pat) == 0 {
				continue
			}
			dgrow := dGate[g].Row(k)
			if topK > 0 {
				pat = sel.Filter(pat, dgrow, topK)
			}
			for i, av := range x.Row(k) {
				if av == 0 {
					continue
				}
				wrow := grads.W[g].Row(i)
				for _, kk := range pat {
					wrow[kk] += float32(av * dgrow[kk])
				}
			}
			for i, av := range hPrev.Row(k) {
				if av == 0 {
					continue
				}
				urow := grads.U[g].Row(i)
				for _, kk := range pat {
					urow[kk] += float32(av * dgrow[kk])
				}
			}
			for _, kk := range pat {
				grads.B[g][kk] += dgrow[kk]
			}
		}
	}
}

func requireSameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Errorf("%s[%d] = %v, want %v", label, i, got[i], want[i])
			return
		}
	}
}

// TestSparseBackwardBlockedShapes drives the blocked sparse kernels
// through every remainder of their 4-, 8- and 32-wide blocks, with empty
// pattern rows, exact-zero activations (single entries and whole
// columns, which send a row block down the per-row fallback) and top-k
// at 1, hidden/2 and hidden. Propagated gradients must match the dense
// BackwardFromP1 bitwise; weight gradients must match the unblocked
// reference loop exactly, and the dense kernel too when top-k keeps
// every column.
func TestSparseBackwardBlockedShapes(t *testing.T) {
	for _, workers := range []int{1, 2} {
		prev := tensor.SetWorkers(workers)
		for _, d := range [][3]int{{1, 1, 1}, {3, 5, 2}, {7, 6, 3}, {9, 11, 5}, {13, 7, 6}, {16, 12, 4}, {19, 10, 7}, {26, 13, 9},
			{16, 24, 32}, {20, 44, 32}, {40, 17, 32}} {
			input, hidden, batch := d[0], d[1], d[2]
			for _, topK := range []int{1, hidden / 2, hidden} {
				name := fmt.Sprintf("w%d/in%d_h%d_b%d/topk%d", workers, input, hidden, batch, topK)
				t.Run(name, func(t *testing.T) {
					checkSparseBlocked(t, input, hidden, batch, topK)
				})
			}
		}
		tensor.SetWorkers(prev)
	}
}

func checkSparseBlocked(t *testing.T, input, hidden, batch, topK int) {
	c := newSparseCell(uint64(41+input*hidden+batch), input, hidden, batch)
	// Exact zeros in the activations: a scattered few, plus one whole
	// column of x and of h_{t-1} (h_{t-1} is all zero at t = 0).
	for i := 0; i < len(c.x.Data); i += 5 {
		c.x.Data[i] = 0
	}
	for k := 0; k < batch; k++ {
		c.x.Set(k, input/2, 0)
		c.h0.Set(k, hidden-1, 0)
	}
	in := BPInput{DY: c.dy, DH: c.dh, DS: c.ds}
	ws := tensor.NewWorkspace()
	h, s, p1 := ForwardWithP1(ws, c.p, c.x, c.h0, c.s0)
	pruneP1(p1, 0.1)
	// Empty pattern rows: batch row 0 of every plane pruned entirely.
	for _, m := range p1.Matrices() {
		clear(m.Row(0))
	}

	dGrads, sGrads, rGrads := NewGrads(c.p), NewGrads(c.p), NewGrads(c.p)
	// Accumulators start at −0, the one value adding a ±0 product can
	// change: a zero activation must be skipped, not multiplied in.
	negZero := float32(math.Copysign(0, -1))
	for _, gr := range []*Grads{sGrads, rGrads} {
		for g := Gate(0); g < NumGates; g++ {
			gr.W[g].Fill(negZero)
			gr.U[g].Fill(negZero)
		}
	}
	dOut := BackwardFromP1(ws, c.p, dGrads, c.x, c.h0, p1, in)
	sOut := BackwardFromP1Sparse(ws, c.p, sGrads, c.x, c.h0, p1, in, topK)
	requireBitwise(t, "δX", dOut.DX, sOut.DX)
	requireBitwise(t, "δH_{t-1}", dOut.DHPrev, sOut.DHPrev)
	requireBitwise(t, "δS_{t-1}", dOut.DSPrev, sOut.DSPrev)
	if topK >= hidden {
		requireGradsBitwise(t, dGrads, sGrads)
	}

	sp := EncodeP1Sparse(nil, p1)
	dGate := refSparseGateGrads(p1, in)
	refSparseWeightGrads(rGrads, c.x, c.h0, sp, &dGate, topK)
	for g := Gate(0); g < NumGates; g++ {
		requireSameBits(t, "δW["+g.String()+"]", sGrads.W[g].Data, rGrads.W[g].Data)
		requireSameBits(t, "δU["+g.String()+"]", sGrads.U[g].Data, rGrads.U[g].Data)
		requireSameBits(t, "δB["+g.String()+"]", sGrads.B[g], rGrads.B[g])
	}
	ws.PutAll(h, s, dOut.DX, dOut.DHPrev, dOut.DSPrev, sOut.DX, sOut.DHPrev, sOut.DSPrev)
	p1.Release(ws)
}
