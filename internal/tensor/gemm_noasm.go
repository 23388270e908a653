//go:build !amd64 || noasm

package tensor

// Portable fallback: no assembly micro-kernel is compiled in, either
// because the target is not amd64 or because the `noasm` build tag
// asked for the pure-Go kernels (the reference the asm variants are
// validated against). Only the generic tier exists here, so the tier
// dispatch in gemm.go never leaves its zero value and
// MDGAN_GEMM_KERNEL has nothing to force.

const (
	gemmAsmCompiled = false
	gemmHasAVX2     = false
	gemmHasAVX512   = false
)

// gemmKernelAsm exists so microKernel links; the tierAVX2 dispatch is
// unreachable on this build.
func gemmKernelAsm(c *Elem, ldc int, a, b *Elem, kc int, add bool) {
	panic("tensor: assembly micro-kernel called on a noasm build")
}

// gemmKernelAsm512 exists so the tierAVX512 dispatch links; it is
// unreachable on this build.
func gemmKernelAsm512(c *Elem, ldc int, a, b *Elem, kc int, add bool, mr, nr int) {
	panic("tensor: AVX-512 micro-kernel called on a noasm build")
}

// gemmSkinnyAsm512 and gemmDotAsm512 exist so the skinny-M dispatch
// links; it is taken on tierAVX512 only, so both are unreachable on
// this build.
func gemmSkinnyAsm512(c *Elem, ldc int, a, b *Elem, ldb, kc int, add bool, mr, nr int) {
	panic("tensor: AVX-512 skinny kernel called on a noasm build")
}

func gemmDotAsm512(c *Elem, ldc int, a *Elem, lda int, b *Elem, ldb, k int, add bool, mr, nr int) {
	panic("tensor: AVX-512 dot kernel called on a noasm build")
}

// tanhAsm512, adamAsm512, gateAsm512, gatherS2Asm512 and addS2Asm512
// exist so the element-wise dispatch links; it is taken on tierAVX512
// only, so all five are unreachable on this build.
func tanhAsm512(dst, src *Elem, n int) {
	panic("tensor: AVX-512 tanh kernel called on a noasm build")
}

func adamAsm512(w, grad *Elem, m, v *float64, n int, k *[8]float64) {
	panic("tensor: AVX-512 Adam kernel called on a noasm build")
}

func gateAsm512(dst, v, x *Elem, n int, alpha *Elem) {
	panic("tensor: AVX-512 gate kernel called on a noasm build")
}

func gatherS2Asm512(dst, src *Elem, rows, dstStride, srcStride, lo, m int) {
	panic("tensor: AVX-512 gather kernel called on a noasm build")
}

func addS2Asm512(x, src *Elem, rows, xStride, srcStride, m int) {
	panic("tensor: AVX-512 accumulate kernel called on a noasm build")
}
