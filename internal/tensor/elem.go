package tensor

import (
	"fmt"
	"math"
)

// Element-wise kernels in assembly, both on the avx512 tier only
// (elem_amd64.h, instantiated per dtype); every other tier, and the
// noasm build, keep the Go loop beside each.
//
// tanh ends every image generator (gan.PaperMLP/ScaledMLP), once per
// output pixel, and through math.Tanh it was a quarter of the served
// generator's batch-64 forward. tanhAsm512 computes 8 float64 or 16
// float32 lanes per step, the f32 build in float32 throughout. It is
// exact where exactness is a property — tanh(−x) = −tanh(x) bit for
// bit, ±0 and NaN pass through, |tanh x| ≤ 1, and it is exactly ±1
// from the point where the rounded tanh is (19.06 in float64, 9.01 in
// float32) — and otherwise within 2 ulp of math.Tanh (float64) and of
// float32(math.Tanh(float64(x))) (float32): TestTanhAccuracy pins the
// bound, TestTanhProperties the rest.
//
// Adam's update is a third of the MNIST op, and its scalar loop waits on
// the divider: one sqrt and one divide per parameter cost 3.6–4.6 ns,
// where the same seven streams with a multiply and an add in their place
// cost 2.1–2.8 ns (2-CPU AVX-512 Xeon, 4k–716k parameters, both dtypes).
// adamAsm512 issues both 8 lanes at a time, 1.8–2.2 ns, and is bitwise
// equal to the scalar loop (TestAdamKernelMatchesScalar).

// elemVecOK reports whether the element-wise kernels run: a pure
// function of the live tier (both dtypes have them).
func elemVecOK() bool { return gemmTier == tierAVX512 }

// TanhInto computes out = tanh(t) element-wise into the preallocated
// out, which may be t itself.
func TanhInto(out, t *Tensor) {
	if len(out.Data) != len(t.Data) {
		panic(fmt.Sprintf("tensor: TanhInto out volume %d, want %d", len(out.Data), len(t.Data)))
	}
	tanhElems(out.Data, t.Data)
}

func tanhElems(dst, src []Elem) {
	if len(src) > 0 && elemVecOK() {
		tanhAsm512(&dst[:len(src)][0], &src[0], len(src))
		return
	}
	for i, v := range src {
		dst[i] = Elem(math.Tanh(float64(v)))
	}
}

// AdamStep holds the scalars of one Adam step: the moment decays β1 and
// β2, the learning rate, the reciprocal bias corrections 1/(1−β1ᵗ) and
// 1/(1−β2ᵗ), and the ε added to the denominator.
type AdamStep struct {
	B1, B2, LR, IC1, IC2, Eps float64
}

// AdamUpdate applies one Adam step to every i < len(g), with the moments
// m and v in float64 whatever Elem is:
//
//	m[i] = β1·m[i] + (1−β1)·g[i]
//	v[i] = β2·v[i] + ((1−β2)·g[i])·g[i]
//	w[i] -= Elem(lr·(m[i]·ic1) / (√(v[i]·ic2) + ε))
//
// Each operation is rounded on its own, in this order, on every tier, so
// the result does not depend on the tier. w, m and v must hold at least
// len(g) elements.
func AdamUpdate(w, g []Elem, m, v []float64, s AdamStep) {
	if n := len(g); n > 0 && elemVecOK() {
		k := [8]float64{s.B1, 1 - s.B1, s.B2, 1 - s.B2, s.LR, s.IC1, s.IC2, s.Eps}
		adamAsm512(&w[:n][0], &g[0], &m[:n][0], &v[:n][0], n, &k)
		return
	}
	adamScalar(w, g, m, v, s)
}

// adamScalar is AdamUpdate's Go loop. The float64 conversions round each
// product before its sum: the spec lets a compiler fuse x*y + z into one
// FMA (Go does on arm64, not on amd64), and the rule rounds both, as the
// kernel does.
func adamScalar(w, g []Elem, m, v []float64, s AdamStep) {
	b1, b2, lr, ic1, ic2, eps := s.B1, s.B2, s.LR, s.IC1, s.IC2, s.Eps
	w, m, v = w[:len(g)], m[:len(g)], v[:len(g)]
	for i, gi := range g {
		x := float64(gi)
		mi := float64(b1*m[i]) + float64((1-b1)*x)
		vi := float64(b2*v[i]) + float64((1-b2)*x*x)
		m[i] = mi
		v[i] = vi
		w[i] -= Elem(lr * (mi * ic1) / (math.Sqrt(vi*ic2) + eps))
	}
}
