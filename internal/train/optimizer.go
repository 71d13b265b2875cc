// Package train drives LSTM training: optimizers (SGD, momentum, Adam),
// gradient clipping, an epoch loop over minibatch providers, and the
// evaluation metrics of paper Table II (accuracy, perplexity, MAE, and
// a BLEU-style n-gram score).
package train

import (
	"fmt"
	"math"

	"etalstm/internal/lstm"
	"etalstm/internal/model"
	"etalstm/internal/tensor"
)

// Optimizer applies accumulated gradients to a network's parameters.
type Optimizer interface {
	// Step applies grads to net and advances the optimizer state.
	Step(net *model.Network, grads *model.Gradients)
	// Name identifies the optimizer in logs and experiment records.
	Name() string
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float32
	Momentum float32

	vel *velocity
}

// velocity mirrors the parameter shapes for momentum accumulation.
type velocity struct {
	layerW, layerU [][]*tensor.Matrix
	layerB         [][][]float32
	proj           *tensor.Matrix
	projB          []float32
}

func newVelocity(net *model.Network) *velocity {
	v := &velocity{
		proj:  tensor.New(net.Proj.Rows, net.Proj.Cols),
		projB: make([]float32, len(net.ProjB)),
	}
	for _, p := range net.Layer {
		var ws, us []*tensor.Matrix
		var bs [][]float32
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			ws = append(ws, tensor.New(p.W[g].Rows, p.W[g].Cols))
			us = append(us, tensor.New(p.U[g].Rows, p.U[g].Cols))
			bs = append(bs, make([]float32, len(p.B[g])))
		}
		v.layerW = append(v.layerW, ws)
		v.layerU = append(v.layerU, us)
		v.layerB = append(v.layerB, bs)
	}
	return v
}

// Name implements Optimizer.
func (s *SGD) Name() string { return fmt.Sprintf("sgd(lr=%g,mom=%g)", s.LR, s.Momentum) }

// Step implements Optimizer.
func (s *SGD) Step(net *model.Network, grads *model.Gradients) {
	if s.Momentum != 0 && s.vel == nil {
		s.vel = newVelocity(net)
	}
	// Every product feeding an add is rounded explicitly, so arm64
	// cannot fuse it into an FMA (make fma-check).
	applyVec := func(param, grad, vel []float32) {
		for i := range param {
			g := grad[i]
			if vel != nil {
				vel[i] = float32(s.Momentum*vel[i]) + g
				g = vel[i]
			}
			param[i] -= float32(s.LR * g)
		}
	}
	for l, p := range net.Layer {
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			var vw, vu []float32
			var vb []float32
			if s.vel != nil {
				vw = s.vel.layerW[l][g].Data
				vu = s.vel.layerU[l][g].Data
				vb = s.vel.layerB[l][g]
			}
			applyVec(p.W[g].Data, grads.Layer[l].W[g].Data, vw)
			applyVec(p.U[g].Data, grads.Layer[l].U[g].Data, vu)
			applyVec(p.B[g], grads.Layer[l].B[g], vb)
		}
	}
	var vp []float32
	var vpb []float32
	if s.vel != nil {
		vp = s.vel.proj.Data
		vpb = s.vel.projB
	}
	applyVec(net.Proj.Data, grads.Proj.Data, vp)
	applyVec(net.ProjB, grads.ProjB, vpb)
}

// Adam implements the Adam optimizer (Kingma & Ba). The zero value is
// not usable; set LR (and optionally the betas) before the first Step.
type Adam struct {
	LR    float32
	Beta1 float32 // default 0.9
	Beta2 float32 // default 0.999
	Eps   float32 // default 1e-8

	t    int
	m, v *velocity
}

// Name implements Optimizer.
func (a *Adam) Name() string { return fmt.Sprintf("adam(lr=%g)", a.LR) }

// Step implements Optimizer.
func (a *Adam) Step(net *model.Network, grads *model.Gradients) {
	if a.Beta1 == 0 {
		a.Beta1 = 0.9
	}
	if a.Beta2 == 0 {
		a.Beta2 = 0.999
	}
	if a.Eps == 0 {
		a.Eps = 1e-8
	}
	if a.m == nil {
		a.m = newVelocity(net)
		a.v = newVelocity(net)
	}
	a.t++
	bc1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	bc2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))

	// Products are rounded explicitly, as in SGD.Step.
	applyVec := func(param, grad, m, v []float32) {
		for i := range param {
			g := grad[i]
			m[i] = float32(a.Beta1*m[i]) + float32((1-a.Beta1)*g)
			v[i] = float32(a.Beta2*v[i]) + float32((1-a.Beta2)*g*g)
			mh := m[i] / bc1
			vh := v[i] / bc2
			param[i] -= a.LR * mh / (float32(math.Sqrt(float64(vh))) + a.Eps)
		}
	}
	for l, p := range net.Layer {
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			applyVec(p.W[g].Data, grads.Layer[l].W[g].Data, a.m.layerW[l][g].Data, a.v.layerW[l][g].Data)
			applyVec(p.U[g].Data, grads.Layer[l].U[g].Data, a.m.layerU[l][g].Data, a.v.layerU[l][g].Data)
			applyVec(p.B[g], grads.Layer[l].B[g], a.m.layerB[l][g], a.v.layerB[l][g])
		}
	}
	applyVec(net.Proj.Data, grads.Proj.Data, a.m.proj.Data, a.v.proj.Data)
	applyVec(net.ProjB, grads.ProjB, a.m.projB, a.v.projB)
}

// ClipGradients rescales all gradients so their global L2 norm does not
// exceed maxNorm (the standard defence against LSTM gradient blow-up).
// It returns the pre-clip norm.
func ClipGradients(grads *model.Gradients, maxNorm float64) float64 {
	var sq float64
	add := func(v float32) { sq += float64(float64(v) * float64(v)) } // rounded: no FMA
	for _, lg := range grads.Layer {
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			for _, v := range lg.W[g].Data {
				add(v)
			}
			for _, v := range lg.U[g].Data {
				add(v)
			}
			for _, v := range lg.B[g] {
				add(v)
			}
		}
	}
	for _, v := range grads.Proj.Data {
		add(v)
	}
	for _, v := range grads.ProjB {
		add(v)
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := float32(maxNorm / norm)
	for _, lg := range grads.Layer {
		lg.Scale(scale)
	}
	tensor.Scale(grads.Proj, grads.Proj, scale)
	for i := range grads.ProjB {
		grads.ProjB[i] *= scale
	}
	return norm
}
