package lstm

import (
	"etalstm/internal/obs"
	"etalstm/internal/tensor"
)

// Workspace object slots for the sparse-backward headers (slots 1 and 2
// belong to FWCache and P1, see cell.go).
const (
	wsSlotSparseP1      uint8 = 3
	wsSlotSparseScratch uint8 = 4
)

// The six P1 planes in Matrices() order. The first four coincide with
// the Gate constants (Pf↔GateF … Po↔GateO), which is what lets the
// sparse BP-MatMul index planes[g] directly.
const (
	planePf = iota
	planePi
	planePc
	planePo
	planePs
	planePfs
	numPlanes
)

// pairPlane is one P1 product in CSR-style (value, index) form: row i's
// surviving pairs live at positions start[i]:start[i+1] of idx/val,
// with idx holding column offsets in ascending order — the software
// image of the DMA's WT data / WT index queue pair.
type pairPlane struct {
	start []int32 // len batch+1
	idx   []int32
	val   []float32
}

// rowIdx returns row i's surviving column indices.
func (pl *pairPlane) rowIdx(i int) []int32 { return pl.idx[pl.start[i]:pl.start[i+1]] }

// SparseP1 is the pair-encoded form of a pruned P1 set — what the BP
// cell's sparse kernels consume instead of the dense planes. Zeros
// (pruned entries) are represented by absence; everything else is
// stored exactly.
type SparseP1 struct {
	batch, hidden int
	planes        [numPlanes]pairPlane
}

// NNZ returns the total surviving pairs across the six planes.
func (s *SparseP1) NNZ() int {
	n := 0
	for i := range s.planes {
		n += len(s.planes[i].idx)
	}
	return n
}

// Density returns NNZ over the dense element count — 1 minus the prune
// ratio the BP-EW-P2/BP-MatMul spans can skip.
func (s *SparseP1) Density() float64 {
	total := numPlanes * s.batch * s.hidden
	if total == 0 {
		return 0
	}
	return float64(s.NNZ()) / float64(total)
}

// release resets the plane slices (keeping their capacity, so warm
// cycles stay allocation-free) and recycles the header.
func (s *SparseP1) release(ws *tensor.Workspace) {
	for i := range s.planes {
		pl := &s.planes[i]
		pl.start = pl.start[:0]
		pl.idx = pl.idx[:0]
		pl.val = pl.val[:0]
	}
	s.batch, s.hidden = 0, 0
	ws.PutObj(wsSlotSparseP1, s)
}

// getSparseP1 pops a recycled header or allocates one.
func getSparseP1(ws *tensor.Workspace) *SparseP1 {
	if v := ws.GetObj(wsSlotSparseP1); v != nil {
		return v.(*SparseP1)
	}
	return &SparseP1{}
}

// EncodeP1Sparse pair-encodes a (typically pruned) P1 set. This is the
// software stand-in for the DMA compression module emitting value+index
// queues, so it records under BP-EW-P1 — the phase that produced the
// products — keeping the BP-EW-P2 and BP-MatMul spans a clean measure
// of the kernels that consume the pairs. p1 itself is left intact.
func EncodeP1Sparse(ws *tensor.Workspace, p1 *P1) *SparseP1 {
	sp := ws.Recorder().Begin(obs.PhaseBPEWP1)
	s := getSparseP1(ws)
	s.batch, s.hidden = p1.Pf.Rows, p1.Pf.Cols
	for pi, m := range p1.Matrices() {
		pl := &s.planes[pi]
		pl.start = append(pl.start[:0], 0)
		pl.idx = pl.idx[:0]
		pl.val = pl.val[:0]
		for i := 0; i < m.Rows; i++ {
			for j, v := range m.Row(i) {
				if v != 0 {
					pl.idx = append(pl.idx, int32(j))
					pl.val = append(pl.val, v)
				}
			}
			pl.start = append(pl.start, int32(len(pl.idx)))
		}
	}
	sp.End()
	return s
}

// scatterMul writes dst[k] = src[k]·val at the plane's surviving
// positions. Everywhere else dst keeps the exact zero it was cleared
// to, which is what the dense kernel's product against a pruned (zero)
// P1 entry yields.
func scatterMul(dst, src *tensor.Matrix, pl *pairPlane, hidden int) {
	for i := 0; i+1 < len(pl.start); i++ {
		off := i * hidden
		for n := pl.start[i]; n < pl.start[i+1]; n++ {
			k := off + int(pl.idx[n])
			dst.Data[k] = src.Data[k] * pl.val[n]
		}
	}
}

// BackwardFromP1Sparse is BackwardFromP1 driven by the (value, index)
// pairs of a pruned P1 set: BP-EW-P2 touches only surviving pairs, and
// BP-MatMul's inner products gather over each gate's surviving columns
// (the Omni-PE's index-driven operand fetch). topK > 0 additionally
// caps each batch row of the weight-gradient MatMuls to its topK
// largest-|δgate| columns (Zhu et al., arXiv:1806.00512); propagated
// gradients (δX, δH_{t-1}) always use the full pattern.
//
// Every arithmetic difference from the dense kernel is the skipping of
// terms that are exact zeros there, in an accumulation order that
// preserves the dense per-accumulator order — so at any prune
// threshold the result matches BackwardFromP1 on the same pruned set
// bitwise (modulo the sign of exact zeros, which no comparison in this
// codebase distinguishes), and with topK ≥ hidden the top-k path is the
// identity. The check package's sparse equivalence matrix enforces
// both.
func BackwardFromP1Sparse(ws *tensor.Workspace, p *Params, grads *Grads, x, hPrev *tensor.Matrix, p1 *P1, in BPInput, topK int) BPOutput {
	sp1 := EncodeP1Sparse(ws, p1)
	span := ws.Recorder().Begin(obs.PhaseBPEWP2)
	batch := p1.Pf.Rows
	hidden := p.Hidden

	dh := ws.Get(batch, hidden)
	if in.DY != nil {
		tensor.AddInPlace(dh, in.DY)
	}
	if in.DH != nil {
		tensor.AddInPlace(dh, in.DH)
	}

	// δs = δh⊙Ps + δS_{t+1}, walked over Ps's pairs only: where Ps was
	// pruned the product is an exact zero and δs is just the carried δS
	// value the buffer already holds. Adding the product onto the carried
	// value reproduces the dense expression bitwise (float add commutes).
	ds := ws.Get(batch, hidden)
	if in.DS != nil {
		copy(ds.Data, in.DS.Data)
	}
	pl := &sp1.planes[planePs]
	for i := 0; i < batch; i++ {
		off := i * hidden
		for n := pl.start[i]; n < pl.start[i+1]; n++ {
			k := off + int(pl.idx[n])
			ds.Data[k] = float32(dh.Data[k]*pl.val[n]) + ds.Data[k]
		}
	}

	var dGate [NumGates]*tensor.Matrix
	for g := Gate(0); g < NumGates; g++ {
		dGate[g] = ws.Get(batch, hidden)
	}
	dsPrev := ws.Get(batch, hidden)
	scatterMul(dGate[GateO], dh, &sp1.planes[planePo], hidden)
	scatterMul(dGate[GateF], ds, &sp1.planes[planePf], hidden)
	scatterMul(dGate[GateI], ds, &sp1.planes[planePi], hidden)
	scatterMul(dGate[GateC], ds, &sp1.planes[planePc], hidden)
	scatterMul(dsPrev, ds, &sp1.planes[planePfs], hidden)
	ws.Put(dh)
	ws.Put(ds)
	span.End()

	out := sparseMatmulBackward(ws, p, grads, x, hPrev, sp1, &dGate, dsPrev, topK)
	ws.PutAll(dGate[:]...)
	sp1.release(ws)
	return out
}

// sparseMatmulBackward is matmulBackward with every inner product
// taken over the gate's surviving pattern instead of all hidden
// columns. δgate_g is zero wherever its P1 plane was pruned (plane g —
// the gate and plane orders coincide), so each skipped term is a
// multiply-add of an exact zero. Per-accumulator accumulation order
// matches the dense kernel: gates ascend, batch rows ascend, columns
// ascend. The propagated gradients combine rows of the transposed
// weights (tensor.CombineRows) and the weight gradients accumulate
// 32 or eight rows per column pass (tensor.AccumulateColumns):
// both change which accumulators share a pass over memory, never the
// order of any one accumulator's terms.
func sparseMatmulBackward(ws *tensor.Workspace, p *Params, grads *Grads, x, hPrev *tensor.Matrix, sp1 *SparseP1, dGate *[NumGates]*tensor.Matrix, dsPrev *tensor.Matrix, topK int) BPOutput {
	span := ws.Recorder().Begin(obs.PhaseBPMatMul)
	batch := dsPrev.Rows
	dx := ws.Get(batch, p.Input)
	dhPrev := ws.Get(batch, p.Hidden)
	sc := getSparseScratch(ws)
	for g := Gate(0); g < NumGates; g++ {
		pl := &sp1.planes[g]
		dg := dGate[g]
		// δX_t += δgate_g·W_gᵀ ; δH_{t-1} += δgate_g·U_gᵀ. Row i of each
		// product is the δgate-weighted sum of the transposed weights'
		// rows at the pattern's columns, summed from zero and then added
		// in, as MatMulTransB's dot products are. An empty pattern row
		// contributes exactly zero and is skipped whole.
		if len(pl.idx) > 0 {
			wt := transposeInto(&sc.wt, p.W[g])
			ut := transposeInto(&sc.ut, p.U[g])
			for i := 0; i < batch; i++ {
				pat := pl.rowIdx(i)
				if len(pat) == 0 {
					continue
				}
				vals := sc.compact(pat, dg.Row(i))
				sc.addCombination(dx.Row(i), wt, pat, vals)
				sc.addCombination(dhPrev.Row(i), ut, pat, vals)
			}
		}
		if grads == nil {
			continue
		}
		// δW_g += x_tᵀ⊗δgate_g ; δU_g += h_{t-1}ᵀ⊗δgate_g ; δB_g += Σδgate_g
		// — the weight-gradient side, where the per-row top-k structured
		// sparsifier applies.
		sc.transpose(pl, dg, topK)
		scatterCols(grads.W[g], x, sc)
		scatterCols(grads.U[g], hPrev, sc)
		brow := grads.B[g]
		for kk, cnt := range sc.colN {
			sum := brow[kk]
			for _, v := range sc.column(kk, cnt).v {
				sum += v
			}
			brow[kk] = sum
		}
	}
	sc.put(ws)
	span.End()
	return BPOutput{DX: dx, DHPrev: dhPrev, DSPrev: dsPrev}
}

// scatterCols adds aᵀ·δgate into dst (a's width × hidden) from the
// column lists in sc: element (i, kk) collects a[k][i]·v over column
// kk's (k, v) entries, k ascending — the order the row-by-row outer
// product gave it. 32 dst rows, or eight, are updated per pass over
// the lists (tensor.AccumulateColumns, one vector lane per row). An
// eight-row group whose a columns hold an exact zero anywhere falls
// back to one row per pass, where a zero a[k][i] adds nothing, as in
// tensor.AddMatMulTransA.
func scatterCols(dst, a *tensor.Matrix, sc *sparseScratch) {
	m := a.Cols
	i := 0
	for i+8 <= m {
		w := 8
		if i+32 <= m && !hasZero(a, i, i+32) {
			w = 32
		} else if hasZero(a, i, i+8) {
			for q := i; q < i+8; q++ {
				scatterCol(dst.Row(q), a, q, sc)
			}
			i += 8
			continue
		}
		tensor.AccumulateColumns(dst, i, w, a, sc.colN, sc.colK, sc.colV, sc.batch)
		i += w
	}
	for ; i < m; i++ {
		scatterCol(dst.Row(i), a, i, sc)
	}
}

// scatterCol is scatterCols for the single dst row drow = row i,
// skipping exact-zero a[k][i].
func scatterCol(drow []float32, a *tensor.Matrix, i int, sc *sparseScratch) {
	m := a.Cols
	if !hasNonZero(a, i) {
		return // every term would be skipped: h_{t-1} = 0 at t = 0
	}
	for kk, cnt := range sc.colN {
		if cnt == 0 {
			continue
		}
		c := sc.column(kk, cnt)
		sum := drow[kk]
		for n, k := range c.k {
			if av := a.Data[int(k)*m+i]; av != 0 {
				sum += float32(av * c.v[n])
			}
		}
		drow[kk] = sum
	}
}

// hasNonZero reports whether column i of a holds a non-zero value.
func hasNonZero(a *tensor.Matrix, i int) bool {
	for k := 0; k < a.Rows; k++ {
		if a.Data[k*a.Cols+i] != 0 {
			return true
		}
	}
	return false
}

// hasZero reports whether any a[k][j], lo ≤ j < hi, is an exact zero.
func hasZero(a *tensor.Matrix, lo, hi int) bool {
	for k := 0; k < a.Rows; k++ {
		for _, v := range a.Row(k)[lo:hi] {
			if v == 0 {
				return true
			}
		}
	}
	return false
}

// sparseScratch is the reusable scratch of the sparse BP-MatMul: the
// top-k selector, one row's δgate values compacted to its pattern, the
// transposed weights and one combination row of the propagated-gradient
// gather, and the weight-gradient column lists. Column kk's entries sit
// at colK/colV[kk·batch : kk·batch+colN[kk]], batch rows ascending. It
// is recycled through the workspace, so a warm cell runs the sparse
// kernels without allocating.
type sparseScratch struct {
	sel    TopKSelector
	vals   []float32
	wt, ut tensor.Matrix
	row    []float32
	batch  int
	colN   []int32
	colK   []int32   // batch row of each entry
	colV   []float32 // δgate value of each entry
}

// colList is one weight-gradient column list: batch rows k ascending
// and the δgate values at (k, column).
type colList struct {
	k []int32
	v []float32
}

// getSparseScratch pops the recycled scratch or allocates one.
func getSparseScratch(ws *tensor.Workspace) *sparseScratch {
	if v := ws.GetObj(wsSlotSparseScratch); v != nil {
		return v.(*sparseScratch)
	}
	return &sparseScratch{}
}

// put recycles the scratch (its slices keep their capacity).
func (sc *sparseScratch) put(ws *tensor.Workspace) { ws.PutObj(wsSlotSparseScratch, sc) }

// compact returns row's values at the pattern positions, in pattern
// order, valid until the next compact call.
func (sc *sparseScratch) compact(pat []int32, row []float32) []float32 {
	sc.vals = sc.vals[:0]
	for _, kk := range pat {
		sc.vals = append(sc.vals, row[kk])
	}
	return sc.vals
}

// transposeInto writes wᵀ into dst, reusing its storage, and returns it.
func transposeInto(dst, w *tensor.Matrix) *tensor.Matrix {
	*dst = tensor.Matrix{Rows: w.Cols, Cols: w.Rows, Data: resize(dst.Data, w.Rows*w.Cols)}
	return tensor.Transpose(dst, w)
}

// addCombination adds Σₙ vals[n]·wt.Row(pat[n]) to drow, the sum formed
// from zero in the scratch row first.
func (sc *sparseScratch) addCombination(drow []float32, wt *tensor.Matrix, pat []int32, vals []float32) {
	sc.row = resize(sc.row, wt.Cols)
	tensor.CombineRows(sc.row, wt, pat, vals)
	drow = drow[:len(sc.row)]
	for j, v := range sc.row {
		drow[j] += v
	}
}

// transpose rebuilds the column lists from plane pl's row patterns
// (each cut to its topK largest-|δgate| columns when topK > 0) and the
// δgate values dg holds there. Rows are visited in ascending order, so
// every column lists its entries k ascending.
func (sc *sparseScratch) transpose(pl *pairPlane, dg *tensor.Matrix, topK int) {
	batch, hidden := dg.Rows, dg.Cols
	sc.batch = batch
	sc.colN = resize(sc.colN, hidden)
	clear(sc.colN)
	sc.colK = resize(sc.colK, hidden*batch)
	sc.colV = resize(sc.colV, hidden*batch)
	for k := 0; k < batch; k++ {
		pat := pl.rowIdx(k)
		if len(pat) == 0 {
			continue
		}
		dgrow := dg.Row(k)
		if topK > 0 {
			pat = sc.sel.Filter(pat, dgrow, topK)
		}
		for _, kk := range pat {
			e := int(kk)*batch + int(sc.colN[kk])
			sc.colK[e], sc.colV[e] = int32(k), dgrow[kk]
			sc.colN[kk]++
		}
	}
}

// column returns column kk's list, whose length is cnt = colN[kk].
func (sc *sparseScratch) column(kk int, cnt int32) colList {
	off := kk * sc.batch
	return colList{sc.colK[off : off+int(cnt)], sc.colV[off : off+int(cnt)]}
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// TopKSelector picks per-row top-k column subsets for the structured
// weight-gradient sparsifier. It owns reusable scratch, so a warm
// selector filters without allocating.
type TopKSelector struct {
	absv []float32
	keep []int32
}

// Filter returns the members of idx whose |row[idx[n]]| rank among the
// k largest, preserving ascending index order. Ties at the cut
// magnitude keep the smallest indices, making the selection fully
// deterministic. k <= 0 or k >= len(idx) returns idx unchanged — the
// bitwise identity the equivalence matrix asserts at k = rowlen. The
// returned slice aliases either idx or the selector's scratch and is
// valid until the next Filter call.
func (s *TopKSelector) Filter(idx []int32, row []float32, k int) []int32 {
	if k <= 0 || k >= len(idx) {
		return idx
	}
	s.absv = s.absv[:0]
	for _, j := range idx {
		v := row[j]
		if v < 0 {
			v = -v
		}
		s.absv = append(s.absv, v)
	}
	cut := kthLargest(s.absv, k)
	greater := 0
	for _, j := range idx {
		v := row[j]
		if v < 0 {
			v = -v
		}
		if v > cut {
			greater++
		}
	}
	ties := k - greater
	s.keep = s.keep[:0]
	for _, j := range idx {
		v := row[j]
		if v < 0 {
			v = -v
		}
		if v > cut {
			s.keep = append(s.keep, j)
		} else if v == cut && ties > 0 {
			s.keep = append(s.keep, j)
			ties--
		}
	}
	return s.keep
}

// kthLargest returns the k-th largest element (1-based) of a,
// partially reordering a in place (iterative quickselect, middle
// pivot).
func kthLargest(a []float32, k int) float32 {
	target := len(a) - k
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case target <= j:
			hi = j
		case target >= i:
			lo = i
		default:
			return a[target]
		}
	}
	return a[target]
}
