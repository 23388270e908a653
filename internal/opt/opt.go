// Package opt implements the gradient-based optimisers used to train
// generators and discriminators: SGD (optionally with momentum) and Adam
// (Kingma & Ba, 2014), the optimiser the paper uses on both sides
// (§IV-B2, wi(t) = wi(t−1) + Adam(Δwi)).
package opt

import (
	"math"

	"mdgan/internal/nn"
	"mdgan/internal/parallel"
	"mdgan/internal/tensor"
)

// parGrain is the parameter count above which an optimiser update fans
// out across the worker pool.
const parGrain = 1 << 14

// Optimizer updates network parameters from their accumulated gradients.
// Step consumes the current .Grad of every parameter and leaves it as it
// was; between steps callers zero the gradients, or overwrite them (a
// backward pass under nn.WantWrite).
type Optimizer interface {
	// Step applies one update to all parameters.
	Step(params []*nn.Param)
	// Reset clears internal state (momentum/Adam moments).
	Reset()
}

// SGD is plain stochastic gradient descent with optional classical
// momentum.
type SGD struct {
	LR       float64
	Momentum float64
	velocity map[*nn.Param][]float64
}

// NewSGD returns an SGD optimiser.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*nn.Param][]float64)}
}

// Step applies w ← w − lr·(m·v + g). The velocity state is kept in
// float64 regardless of the compiled tensor Elem (mixed precision: tiny
// per-step updates must not be rounded away before they accumulate).
func (s *SGD) Step(params []*nn.Param) {
	for _, p := range params {
		if s.Momentum == 0 {
			for i, g := range p.Grad.Data {
				p.W.Data[i] -= tensor.Elem(s.LR * float64(g))
			}
			continue
		}
		v := s.velocity[p]
		if v == nil {
			v = make([]float64, p.W.Size())
			s.velocity[p] = v
		}
		for i, g := range p.Grad.Data {
			v[i] = s.Momentum*v[i] + float64(g)
			p.W.Data[i] -= tensor.Elem(s.LR * v[i])
		}
	}
}

// Reset drops momentum state.
func (s *SGD) Reset() { s.velocity = make(map[*nn.Param][]float64) }

// Adam implements the Adam optimiser with bias-corrected first and
// second moment estimates.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	t     int
	m, v  map[*nn.Param][]float64
}

// AdamConfig carries the hyper-parameters; the zero value is replaced by
// the conventional defaults (lr 1e-3, β1 0.9, β2 0.999, ε 1e-8). The
// paper's CelebA experiment tunes these per competitor (§V-B4), which is
// why they are all exposed.
type AdamConfig struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
}

// NewAdam returns an Adam optimiser with the given config.
func NewAdam(cfg AdamConfig) *Adam {
	if cfg.LR == 0 {
		cfg.LR = 1e-3
	}
	if cfg.Beta1 == 0 {
		cfg.Beta1 = 0.9
	}
	if cfg.Beta2 == 0 {
		cfg.Beta2 = 0.999
	}
	if cfg.Eps == 0 {
		cfg.Eps = 1e-8
	}
	return &Adam{
		LR: cfg.LR, Beta1: cfg.Beta1, Beta2: cfg.Beta2, Eps: cfg.Eps,
		m: make(map[*nn.Param][]float64), v: make(map[*nn.Param][]float64),
	}
}

// Step applies one Adam update to all parameters.
func (a *Adam) Step(params []*nn.Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = make([]float64, p.W.Size())
			v = make([]float64, p.W.Size())
			a.m[p] = m
			a.v[p] = v
		}
		w, g := p.W.Data, p.Grad.Data
		if len(g) < parGrain {
			a.update(w, g, m, v, c1, c2, 0, len(g))
			continue
		}
		// Split at half the fan-out threshold so one chunk still
		// amortises the hand-off while an idle helper can take its share
		// of several workers' optimiser steps running concurrently.
		parallel.ForGrain(len(g), parGrain/2, func(s, e int) {
			a.update(w, g, m, v, c1, c2, s, e)
		})
	}
}

// update applies the Adam rule to the index range [s, e). The bias
// corrections are applied as reciprocal multiplies; only the final
// denominator needs a real division. The moment vectors m and v are
// float64 regardless of the compiled tensor Elem — this is the
// correctness-sensitive half of the mixed-precision design: v holds
// squared gradients (whose dynamic range underflows float32 long before
// the gradients themselves do) and both moments integrate tiny
// (1−β)-scaled contributions that float32 would round away.
func (a *Adam) update(w, grad []tensor.Elem, m, v []float64, c1, c2 float64, s, e int) {
	b1, b2, lr, eps := a.Beta1, a.Beta2, a.LR, a.Eps
	ic1, ic2 := 1/c1, 1/c2
	for i := s; i < e; i++ {
		g := float64(grad[i])
		mi := b1*m[i] + (1-b1)*g
		vi := b2*v[i] + (1-b2)*g*g
		m[i] = mi
		v[i] = vi
		w[i] -= tensor.Elem(lr * (mi * ic1) / (math.Sqrt(vi*ic2) + eps))
	}
}

// Reset drops moment state and the step counter.
func (a *Adam) Reset() {
	a.t = 0
	a.m = make(map[*nn.Param][]float64)
	a.v = make(map[*nn.Param][]float64)
}
