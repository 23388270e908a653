package opt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mdgan/internal/nn"
	"mdgan/internal/tensor"
)

// paramWithGrad builds a standalone parameter for unit tests.
func paramWithGrad(w, g []float64) *nn.Param {
	toElem := func(v []float64) []tensor.Elem {
		out := make([]tensor.Elem, len(v))
		for i, x := range v {
			out[i] = tensor.Elem(x)
		}
		return out
	}
	p := &nn.Param{
		W:    tensor.FromSlice(toElem(w), len(w)),
		Grad: tensor.FromSlice(toElem(g), len(g)),
	}
	return p
}

// TestAdamReferenceSequence checks the exact element-wise Adam update
// against a hand-computed reference for two steps.
func TestAdamReferenceSequence(t *testing.T) {
	p := paramWithGrad([]float64{1}, []float64{0.1})
	a := NewAdam(AdamConfig{LR: 0.01, Beta1: 0.9, Beta2: 0.999})

	// Step 1: m=0.01, v=1e-5·... : m̂ = g, v̂ = g² → Δ = lr·g/(|g|+ε) ≈ lr.
	a.Step([]*nn.Param{p})
	w1 := 1 - 0.01*0.1/(math.Sqrt(0.1*0.1)+1e-8)
	if math.Abs(float64(p.W.Data[0])-w1) > tensor.Tol(1e-12, 1e-7) {
		t.Fatalf("step1 w = %.15f, want %.15f", p.W.Data[0], w1)
	}

	// Step 2 with the same gradient, computed by replaying the recurrence.
	m := 0.9*(0.1*(1-0.9)) + (1-0.9)*0.1 // = 0.1*(1-0.9) after step1 was 0.01
	_ = m
	// Recompute exactly as the implementation does:
	m1 := (1 - 0.9) * 0.1
	v1 := (1 - 0.999) * 0.01
	m2 := 0.9*m1 + 0.1*0.1
	v2 := 0.999*v1 + 0.001*0.01
	mhat := m2 / (1 - math.Pow(0.9, 2))
	vhat := v2 / (1 - math.Pow(0.999, 2))
	w2 := w1 - 0.01*mhat/(math.Sqrt(vhat)+1e-8)
	a.Step([]*nn.Param{p})
	if math.Abs(float64(p.W.Data[0])-w2) > tensor.Tol(1e-12, 1e-7) {
		t.Fatalf("step2 w = %.15f, want %.15f", p.W.Data[0], w2)
	}
}

func TestAdamDefaults(t *testing.T) {
	a := NewAdam(AdamConfig{})
	if a.cfg != (AdamConfig{LR: 1e-3, Beta1: 0.9, Beta2: 0.999}) || adamEps != 1e-8 {
		t.Fatalf("defaults = %+v, eps %g", a.cfg, adamEps)
	}
}

func TestAdamZeroGradIsNoOp(t *testing.T) {
	p := paramWithGrad([]float64{3}, []float64{0})
	a := NewAdam(AdamConfig{})
	for i := 0; i < 5; i++ {
		a.Step([]*nn.Param{p})
	}
	if p.W.Data[0] != 3 {
		t.Fatalf("zero gradient moved weight to %v", p.W.Data[0])
	}
}

// TestAdamPanicsOnAnotherParamList pins the contract of the positional
// moments: a Step whose parameters total another element count than
// the first Step's cannot be matched to them and must panic, not
// update with misaligned moments.
func TestAdamPanicsOnAnotherParamList(t *testing.T) {
	p, q := paramWithGrad([]float64{1, 2}, []float64{0.1, 0.2}), paramWithGrad([]float64{3}, []float64{0.3})
	a := NewAdam(AdamConfig{})
	a.Step([]*nn.Param{p, q})
	defer func() {
		if recover() == nil {
			t.Fatal("Step with a shorter parameter list did not panic")
		}
	}()
	a.Step([]*nn.Param{p})
}

// BenchmarkAdam times Adam.Step on one parameter of 4k, 100k and 716k
// elements (716k: the paper's MNIST generator) on the live kernel tier,
// reporting ns per parameter. The avx512 tier runs the vector kernel;
// MDGAN_GEMM_KERNEL=avx2 times the scalar loop.
func BenchmarkAdam(b *testing.B) {
	rng := rand.New(rand.NewSource(79))
	for _, n := range []int{4 << 10, 100_000, 716_000} {
		w, g := make([]float64, n), make([]float64, n)
		for i := range w {
			w[i], g[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		p := []*nn.Param{paramWithGrad(w, g)}
		b.Run(fmt.Sprintf("%s/n=%dk", tensor.GemmKernel(), n/1000), func(b *testing.B) {
			a := NewAdam(AdamConfig{})
			a.Step(p) // allocates the moments
			b.ResetTimer()
			// Not b.Loop: in a sub-benchmark under go1.24 it times the
			// first call, before -cpu has set GOMAXPROCS.
			for i := 0; i < b.N; i++ {
				a.Step(p)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/param")
		})
	}
}

// TestOptimizersMinimiseQuadratic drives Adam on f(w)=|w|² and checks
// convergence toward 0 — an end-to-end sanity check of the update
// direction and magnitude.
func TestOptimizersMinimiseQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := make([]float64, 8)
	for i := range w {
		w[i] = rng.NormFloat64() * 3
	}
	p := paramWithGrad(w, make([]float64, 8))
	var o Optimizer = NewAdam(AdamConfig{LR: 0.05})
	for it := 0; it < 400; it++ {
		for i, v := range p.W.Data {
			p.Grad.Data[i] = 2 * v
		}
		o.Step([]*nn.Param{p})
	}
	for i, v := range p.W.Data {
		if math.Abs(float64(v)) > 1e-2 {
			t.Fatalf("w[%d] = %v did not converge", i, v)
		}
	}
}
