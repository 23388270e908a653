//go:build amd64 && !noasm && f32

#include "textflag.h"

// float32 instance of the element-wise AVX-512 kernels: tanh takes 16
// lanes per ZMM, computed in float32 throughout; Adam takes 8, computed
// in float64 beside its float64 moments. Constants are IEEE bit
// patterns; elem_amd64.h names the slots.

#define ESZ        4
#define LANES      16
#define VMOVU      VMOVUPS
#define VBCAST     VBROADCASTSS
#define VAND       VANDPS
#define VMIN       VMINPS
#define VMUL       VMULPS
#define VSUB       VSUBPS
#define VADD       VADDPS
#define VDIV       VDIVPS
#define VRNDSCALE  VRNDSCALEPS
#define VSCALEF    VSCALEFPS
#define VFMADD213  VFMADD213PS
#define VFMADD231  VFMADD231PS
#define VFNMADD231 VFNMADD231PS
#define VTERNLOG   VPTERNLOGD
#define VPERM      VPERMPS
#define VPERMT2    VPERMT2PS
#define VPCMPGT    VPCMPGTD
#define VBLENDM    VBLENDMPS
#define VPMOVZXB   VPMOVZXBD

DATA elemConst<>+0(SB)/4, $0x80000000  // SIGN: -0
DATA elemConst<>+4(SB)/4, $0x7fffffff  // ABS
DATA elemConst<>+8(SB)/4, $0x41a00000  // CLAMP: 20
DATA elemConst<>+12(SB)/4, $0xc0000000 // MINUS2: -2
DATA elemConst<>+16(SB)/4, $0x3fb8aa3b // LOG2E
DATA elemConst<>+20(SB)/4, $0x3f318000 // LN2HI: 0.693359375
DATA elemConst<>+24(SB)/4, $0xb95e8083 // LN2LO: ln 2 - LN2HI
DATA elemConst<>+28(SB)/4, $0x3f800000 // ONE
DATA elemConst<>+32(SB)/4, $0x3ab68885 // EXPC+0: c4
DATA elemConst<>+36(SB)/4, $0x3c0905b7 // c3
DATA elemConst<>+40(SB)/4, $0x3d2aaa8d // c2
DATA elemConst<>+44(SB)/4, $0x3e2aaa6e // c1
DATA elemConst<>+48(SB)/4, $0x3f000000 // c0
GLOBL elemConst<>(SB), RODATA|NOPTR, $52

// Permutation indices of the stride-2 walks, a byte per lane that
// VPMOVZXBD widens: +0 the even lanes of a two-vector window
// (gatherS2Asm512); +16 and +32 each source lane twice, for the low and
// the high x vector (addS2Asm512).
DATA permIdx<>+0(SB)/8, $0x0e0c0a0806040200
DATA permIdx<>+8(SB)/8, $0x1e1c1a1816141210
DATA permIdx<>+16(SB)/8, $0x0303020201010000
DATA permIdx<>+24(SB)/8, $0x0707060605050404
DATA permIdx<>+32(SB)/8, $0x0b0b0a0a09090808
DATA permIdx<>+40(SB)/8, $0x0f0f0e0e0d0d0c0c
GLOBL permIdx<>(SB), RODATA|NOPTR, $48

// p = Σ c_k·r^k ≈ (e^r − 1 − r)/r² for |r| ≤ ln2/2, by Horner: the
// degree-4 interpolant at Chebyshev nodes, which puts r + r²·p within
// 2.4e-8 relative of e^r − 1 (the Taylor polynomial needs degree 5).
#define EXPM1POLY(r, p) \
	VBCAST         C(EXPC), p; \
	VFMADD213.BCST C(EXPC+1), r, p; \
	VFMADD213.BCST C(EXPC+2), r, p; \
	VFMADD213.BCST C(EXPC+3), r, p; \
	VFMADD213.BCST C(EXPC+4), r, p

// Adam's Elem operands are 8 float32 lanes in a YMM: g widens exactly to
// float64, and the step narrows (round to nearest, as Elem(…) does)
// before the float32 subtract from w.
#define ELOAD(mask, src, z, y) \
	VMOVUPS.Z src, mask, y; \
	VCVTPS2PD y, z

#define ESUB(mask, d, dy) \
	VCVTPD2PS d, dy; \
	VMOVUPS.Z (DI), mask, Y5; \
	VSUBPS    dy, Y5, Y5; \
	VMOVUPS   Y5, mask, (DI)

#include "elem_amd64.h"
