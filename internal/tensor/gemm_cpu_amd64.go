//go:build amd64 && !noasm

package tensor

import "os"

// Runtime CPU feature detection for the assembly micro-kernels. The
// probes run once at init: CPUID must report the ISA bits and OSXSAVE,
// and XGETBV must confirm the OS context-switches the corresponding
// register state — otherwise the first VEX/EVEX instruction would
// fault. Build with `-tags noasm` to compile the probes and the
// assembly out entirely (gemm_noasm.go pins the generic tier).

// gemmKernelAsm is the AVX2+FMA micro-kernel (gemm_amd64.h, instantiated
// per dtype by gemm_amd64_f64.s / gemm_amd64_f32.s): it computes the
// full base-tile gemmMR×gemmNR block from the packed panels at a and b
// and stores it to (add=false) or accumulates it into (add=true) c with
// row stride ldc. Only reachable on the tierAVX2 dispatch — the probe
// must have passed.
//
//go:noescape
func gemmKernelAsm(c *Elem, ldc int, a, b *Elem, kc int, add bool)

// gemmKernelAsm512 is the AVX-512 micro-kernel (gemm_amd64.h, beside
// gemmKernelAsm): it computes an mr×nr tile (mr ≤ gemmMR512 rows,
// nr ≤ gemmNR512 columns) from packed full-width panels, masking the C
// loads/stores to the first nr lanes via a K register and stopping the
// row walk at mr — so ragged edge tiles need no stack-tile merge. Only
// reachable on the tierAVX512 dispatch.
//
//go:noescape
func gemmKernelAsm512(c *Elem, ldc int, a, b *Elem, kc int, add bool, mr, nr int)

// gemmSkinnyAsm512 and gemmDotAsm512 are the pack-free AVX-512 kernels
// of the skinny-M path (gemm_skinny.go; gemm_skinny_amd64.h instantiated
// per dtype): one column strip of c (+)= a·b with b row-major and read
// in place, and one column pair of c (+)= a·bᵀ with b a stored
// transpose. mr ≤ gemmSkinnyM rows; nr ≤ gemmSkinnyStrip and ≤ 2
// columns respectively. Only reachable on the tierAVX512 dispatch.
//
//go:noescape
func gemmSkinnyAsm512(c *Elem, ldc int, a, b *Elem, ldb, kc int, add bool, mr, nr int)

//go:noescape
func gemmDotAsm512(c *Elem, ldc int, a *Elem, lda int, b *Elem, ldb, k int, add bool, mr, nr int)

// tanhAsm512 is the AVX-512 tanh (elem.go; elem_amd64.h instantiated
// per dtype): dst[i] = tanh(src[i]) for i < n, the ragged tail masked.
// Only reachable on the tierAVX512 dispatch.
//
//go:noescape
func tanhAsm512(dst, src *Elem, n int)

// adamAsm512 is the AVX-512 Adam step (elem.go; elem_amd64.h): the
// scalar rule on i < n, bit for bit, with k = β1, 1−β1, β2, 1−β2, lr,
// ic1, ic2, ε. Only reachable on the tierAVX512 dispatch.
//
//go:noescape
func adamAsm512(w, grad *Elem, m, v *float64, n int, k *[8]float64)

// gateAsm512, gatherS2Asm512 and addS2Asm512 are the AVX-512 rectifier
// gate and stride-2 layout walks (elem.go; elem_amd64.h): Gate,
// GatherStride2 and AddStride2 on a validated, non-empty grid, bit for
// bit as their Go loops, the ragged chunks masked. Only reachable on the
// tierAVX512 dispatch.
//
//go:noescape
func gateAsm512(dst, v, x *Elem, n int, alpha *Elem)

//go:noescape
func gatherS2Asm512(dst, src *Elem, rows, dstStride, srcStride, lo, m int)

//go:noescape
func addS2Asm512(x, src *Elem, rows, xStride, srcStride, m int)

// smallMMAsm512 and transposeAsm512 are matmul dispatch step 1's
// AVX-512 kernels (matmul.go's smallProduct; matmul_amd64.h instantiated
// per dtype): one m×n block of C (+)= A·B, lanes across n, bit for bit as
// the Go loops, and a packed transpose. addRowAsm512, addRowNarrowAsm512
// and sumRowsAsm512 are the Dense bias passes (ops.go; matmul_amd64.h).
// All take non-empty, validated operands and are only reachable on the
// tierAVX512 dispatch.
//
//go:noescape
func smallMMAsm512(c *Elem, ldc int, a *Elem, ars, acs int, b *Elem, ldb, m, k, n, mode int)

//go:noescape
func transposeAsm512(dst, src *Elem, rows, cols, lds int)

//go:noescape
func addRowAsm512(x, v *Elem, rows, cols int)

//go:noescape
func addRowNarrowAsm512(x, v *Elem, n, cols int)

//go:noescape
func sumRowsAsm512(out, x *Elem, rows, cols int)

// cpuidRaw executes CPUID for the given leaf/subleaf
// (gemm_cpu_amd64.s).
func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbvRaw reads XCR0 (gemm_cpu_amd64.s); only call it when CPUID
// reports OSXSAVE.
func xgetbvRaw() (eax, edx uint32)

const gemmAsmCompiled = true

// Cached CPU probes; gemm.go's tier dispatch (bestGemmTier,
// ForceGemmKernel) consumes them.
var (
	gemmHasAVX2   = detectGemmAVX2()
	gemmHasAVX512 = detectGemmAVX512()
)

// The env override runs at init so MDGAN_GEMM_KERNEL forces a tier for
// a whole process (verify.sh's kernel matrix); an unknown or
// unavailable name falls back to the best available tier.
func init() {
	if !ForceGemmKernel(os.Getenv("MDGAN_GEMM_KERNEL")) {
		applyGemmTier(bestGemmTier())
	}
}

// osSavesAVX reports OSXSAVE + AVX CPU support and YMM state saving;
// both VEX tiers require it.
func osSavesAVX() bool {
	maxLeaf, _, _, _ := cpuidRaw(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidRaw(1, 0)
	const (
		cpuidFMA     = 1 << 12
		cpuidOSXSAVE = 1 << 27
		cpuidAVX     = 1 << 28
	)
	if ecx1&cpuidFMA == 0 || ecx1&cpuidOSXSAVE == 0 || ecx1&cpuidAVX == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS context-switches YMM state.
	xcr0, _ := xgetbvRaw()
	return xcr0&0x6 == 0x6
}

func detectGemmAVX2() bool {
	if !osSavesAVX() {
		return false
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	const cpuidAVX2 = 1 << 5
	return ebx7&cpuidAVX2 != 0
}

func detectGemmAVX512() bool {
	if !osSavesAVX() {
		return false
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	const (
		cpuidAVX512F  = 1 << 16
		cpuidAVX512DQ = 1 << 17
		cpuidAVX512BW = 1 << 30
		cpuidAVX512VL = 1 << 31
	)
	const need = cpuidAVX512F | cpuidAVX512DQ | cpuidAVX512BW | cpuidAVX512VL
	if ebx7&need != need {
		return false
	}
	// XCR0 0xE6: SSE+AVX plus opmask (bit 5), ZMM_Hi256 (bit 6) and
	// Hi16_ZMM (bit 7) — the OS context-switches K and ZMM state.
	xcr0, _ := xgetbvRaw()
	return xcr0&0xE6 == 0xE6
}
