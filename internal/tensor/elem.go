package tensor

import (
	"fmt"
	"math"
)

// Element-wise kernels in assembly. Only tanh has one: it ends every
// image generator (gan.PaperMLP/ScaledMLP), once per output pixel, and
// through math.Tanh it was a quarter of the served generator's batch-64
// forward. On the avx512 tier tanhAsm512 (elem_amd64.h, instantiated
// per dtype) computes 8 float64 or 16 float32 lanes per step, the f32
// build in float32 throughout; every other tier, and the noasm build,
// keep the math.Tanh loop.
//
// The kernel is exact where exactness is a property — tanh(−x) =
// −tanh(x) bit for bit, ±0 and NaN pass through, |tanh x| ≤ 1, and
// it is exactly ±1 from the point where the rounded tanh is (19.06 in
// float64, 9.01 in float32) — and otherwise within 2 ulp of math.Tanh
// (float64) and of float32(math.Tanh(float64(x))) (float32):
// TestTanhAccuracy pins the bound, TestTanhProperties the rest.

// tanhVecOK reports whether tanh runs the vector kernel: a pure function
// of the live tier (both dtypes have one).
func tanhVecOK() bool { return gemmTier == tierAVX512 }

// TanhInto computes out = tanh(t) element-wise into the preallocated
// out, which may be t itself.
func TanhInto(out, t *Tensor) {
	if len(out.Data) != len(t.Data) {
		panic(fmt.Sprintf("tensor: TanhInto out volume %d, want %d", len(out.Data), len(t.Data)))
	}
	tanhElems(out.Data, t.Data)
}

func tanhElems(dst, src []Elem) {
	if len(src) > 0 && tanhVecOK() {
		tanhAsm512(&dst[:len(src)][0], &src[0], len(src))
		return
	}
	for i, v := range src {
		dst[i] = Elem(math.Tanh(float64(v)))
	}
}
