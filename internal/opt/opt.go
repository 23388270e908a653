// Package opt implements Adam (Kingma & Ba, 2014), the optimiser the
// paper uses on both sides (§IV-B2, wi(t) = wi(t−1) + Adam(Δwi)), behind
// the one-method Optimizer interface that a timing decorator can wrap.
package opt

import (
	"fmt"
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
}

// adamEps is the ε added to Adam's denominator.
const adamEps = 1e-8

// AdamConfig carries the hyper-parameters; a zero field is replaced by
// the conventional default (lr 1e-3, β1 0.9, β2 0.999). The paper's
// CelebA experiment tunes these per competitor (§V-B4), which is why
// they are exposed.
type AdamConfig struct {
	LR    float64
	Beta1 float64
	Beta2 float64
}

// Adam implements the Adam optimiser with bias-corrected first and
// second moment estimates.
type Adam struct {
	cfg AdamConfig // resolved: no zero field
	t   int
	// m and v are the first and second moment estimates, element by
	// element in the order of the first Step's params. They are float64
	// regardless of the compiled tensor Elem — the correctness-sensitive
	// half of the mixed-precision design: v holds squared gradients
	// (whose dynamic range underflows float32 long before the gradients
	// themselves do) and both moments integrate tiny (1−β)-scaled
	// contributions that float32 would round away.
	m, v []float64
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
	return &Adam{cfg: cfg}
}

// Step applies one Adam update to all parameters through
// tensor.AdamUpdate, which holds the rule. The bias corrections are
// applied as reciprocal multiplies; only the final denominator needs a
// real division. The moments follow params by position, so every Step
// must pass the same list; one of another total size panics.
func (a *Adam) Step(params []*nn.Param) {
	if n := nn.NumParams(params); a.m == nil {
		a.m, a.v = make([]float64, n), make([]float64, n)
	} else if n != len(a.m) {
		panic(fmt.Sprintf("opt: Adam.Step got %d parameter elements, the first Step had %d", n, len(a.m)))
	}
	a.t++
	s := tensor.AdamStep{
		B1: a.cfg.Beta1, B2: a.cfg.Beta2, LR: a.cfg.LR, Eps: adamEps,
		IC1: 1 / (1 - math.Pow(a.cfg.Beta1, float64(a.t))),
		IC2: 1 / (1 - math.Pow(a.cfg.Beta2, float64(a.t))),
	}
	off := 0
	for _, p := range params {
		w, g := p.W.Data, p.Grad.Data
		m, v := a.m[off:off+len(w)], a.v[off:off+len(w)]
		off += len(w)
		if len(g) < parGrain {
			tensor.AdamUpdate(w, g, m, v, s)
			continue
		}
		// Split at half the fan-out threshold so one chunk still
		// amortises the hand-off while an idle helper can take its share
		// of several workers' optimiser steps running concurrently.
		parallel.ForGrain(len(g), parGrain/2, func(lo, hi int) {
			tensor.AdamUpdate(w[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], s)
		})
	}
}
