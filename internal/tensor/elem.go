package tensor

import (
	"fmt"
	"math"
)

// Element-wise kernels in assembly, all on the avx512 tier only
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
//
// The CIFAR op spent 39 % of its time in three loops that only move
// data: the conv layers' im2col and col2im walks (nn/conv.go) and the
// rectifiers' gate. Every ScaledCNN conv, and the adjoint of every
// ConvTranspose2D, runs at stride 2, where the Go walks took 0.7–1.2 ns
// per im2col element after two rewrites. GatherStride2 (im2col's
// even-element gather between zeroed ends), AddStride2 (col2im's
// accumulate into every other element) and Gate take a whole grid of
// rows per call, a chunk of 8 float64 or 16 float32 lanes at a time
// through permutes and K masks: 0.2–0.36 ns per element, and 0.16–0.18
// for the gate against 0.52 (2-CPU AVX-512 Xeon, f64). Each is bitwise
// equal to its Go loop on every input, NaN and −0 included — they move
// bits, or round one add or one multiply exactly as the loop does — so
// no result depends on which one runs (TestGateMatchesLoop,
// TestStride2MatchesLoop).

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

// Gate sets dst[i] = v[i]·s for i < len(x), with s = 1 where the bits
// of float64(x[i]), read as an int64, are > 0 and s = alpha elsewhere:
// LeakyReLU's forward (v = x) and backward (v = the incoming gradient).
// For every non-NaN x that is the v > 0 branch's result bit for bit, ±0
// included (+0 is not positive: the backward gives alpha·v there); a
// NaN x takes slope 1 when its sign bit is clear and alpha when set.
// dst and v must hold at least len(x) elements; dst may alias v or x.
func Gate(dst, v, x []Elem, alpha Elem) {
	if n := len(x); n > 0 && elemVecOK() {
		gateAsm512(&dst[:n][0], &v[:n][0], &x[0], n, &alpha)
		return
	}
	gateLoop(dst, v, x, alpha)
}

// gateLoop is Gate's Go loop. It selects the factor instead of
// branching on the sign, which a rectifier's input flips at random (a
// mispredicted branch cost ~5 ns an element, the select under 1): the
// bits b are > 0 as an int64 exactly when the top bit of (b−1)|b is
// clear. Converting a float32 to float64 keeps its sign and whether it
// is zero, so the rule reads the same on the float32 bits.
func gateLoop(dst, v, x []Elem, alpha Elem) {
	slope := [2]Elem{1, alpha}
	v, dst = v[:len(x)], dst[:len(x)]
	for i, xv := range x {
		b := math.Float64bits(float64(xv))
		dst[i] = v[i] * slope[((b-1)|b)>>63]
	}
}

// GatherStride2 fills rows runs of dst, dstStride apart, each with the
// even elements of a run of src, srcStride apart, between zeros: for
// r < rows,
//
//	dst[r·dstStride + lo + t] = src[r·srcStride + 2t]   for t < m,
//
// and dst[r·dstStride + p] = 0 for the other p < dstStride. It is
// im2col at stride 2, one call per image plane. It needs lo ≥ 0, m ≥ 1
// and lo + m ≤ dstStride; dst and src must not overlap.
func GatherStride2(dst, src []Elem, rows, dstStride, srcStride, lo, m int) {
	if rows <= 0 {
		return
	}
	if lo < 0 || m < 1 || lo+m > dstStride || srcStride < 0 {
		panic(fmt.Sprintf("tensor: GatherStride2 lo %d, m %d, dstStride %d, srcStride %d", lo, m, dstStride, srcStride))
	}
	_, _ = dst[rows*dstStride-1], src[(rows-1)*srcStride+2*m-2]
	if elemVecOK() {
		gatherS2Asm512(&dst[0], &src[0], rows, dstStride, srcStride, lo, m)
		return
	}
	gatherS2Loop(dst, src, rows, dstStride, srcStride, lo, m)
}

// gatherS2Loop is GatherStride2's Go loop, its gather unrolled by four.
func gatherS2Loop(dst, src []Elem, rows, dstStride, srcStride, lo, m int) {
	for r := 0; r < rows; r++ {
		d, s := dst[r*dstStride:(r+1)*dstStride], src[r*srcStride:]
		clear(d[:lo])
		v := d[lo : lo+m]
		t := 0
		for ; t+4 <= m; t += 4 {
			s4, w := s[2*t:2*t+7:2*t+7], v[t:t+4:t+4]
			w[0], w[1], w[2], w[3] = s4[0], s4[2], s4[4], s4[6]
		}
		for ; t < m; t++ {
			v[t] = s[2*t]
		}
		clear(d[lo+m:])
	}
}

// AddStride2 adds rows runs of src, srcStride apart, into every other
// element of rows runs of x, xStride apart: for r < rows and t < m,
//
//	x[r·xStride + 2t] += src[r·srcStride + t],
//
// and no other element of x is read or written. It is col2im at stride
// 2, one call per patch coordinate. It needs m ≥ 1 and xStride ≥ 2m − 1,
// so the rows of x do not overlap; x and src must not overlap.
func AddStride2(x, src []Elem, rows, xStride, srcStride, m int) {
	if rows <= 0 {
		return
	}
	if m < 1 || xStride < 2*m-1 || srcStride < 0 {
		panic(fmt.Sprintf("tensor: AddStride2 m %d, xStride %d, srcStride %d", m, xStride, srcStride))
	}
	_, _ = x[(rows-1)*xStride+2*m-2], src[(rows-1)*srcStride+m-1]
	if elemVecOK() {
		addS2Asm512(&x[0], &src[0], rows, xStride, srcStride, m)
		return
	}
	addS2Loop(x, src, rows, xStride, srcStride, m)
}

// addS2Loop is AddStride2's Go loop.
func addS2Loop(x, src []Elem, rows, xStride, srcStride, m int) {
	for r := 0; r < rows; r++ {
		xr := x[r*xStride:]
		for t, v := range src[r*srcStride : r*srcStride+m] {
			xr[2*t] += v
		}
	}
}
