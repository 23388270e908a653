//go:build amd64 && !noasm && !f32

#include "textflag.h"

// float64 instance of the element-wise AVX-512 kernels: 8 lanes per
// ZMM. Constants are IEEE bit patterns; elem_amd64.h names the slots.

#define ESZ        8
#define LANES      8
#define VMOVU      VMOVUPD
#define VBCAST     VBROADCASTSD
#define VAND       VANDPD
#define VMIN       VMINPD
#define VMUL       VMULPD
#define VSUB       VSUBPD
#define VADD       VADDPD
#define VDIV       VDIVPD
#define VRNDSCALE  VRNDSCALEPD
#define VSCALEF    VSCALEFPD
#define VFMADD213  VFMADD213PD
#define VFMADD231  VFMADD231PD
#define VFNMADD231 VFNMADD231PD
#define VTERNLOG   VPTERNLOGQ
#define VPERM      VPERMPD
#define VPERMT2    VPERMT2PD
#define VPCMPGT    VPCMPGTQ
#define VBLENDM    VBLENDMPD
#define VPMOVZXB   VPMOVZXBQ

DATA elemConst<>+0(SB)/8, $0x8000000000000000   // SIGN: -0
DATA elemConst<>+8(SB)/8, $0x7fffffffffffffff   // ABS
DATA elemConst<>+16(SB)/8, $0x4044000000000000  // CLAMP: 40
DATA elemConst<>+24(SB)/8, $0xc000000000000000  // MINUS2: -2
DATA elemConst<>+32(SB)/8, $0x3ff71547652b82fe  // LOG2E
DATA elemConst<>+40(SB)/8, $0x3fe62e42fee00000  // LN2HI: ln 2 to 32 bits
DATA elemConst<>+48(SB)/8, $0x3dea39ef35793c76  // LN2LO: ln 2 - LN2HI
DATA elemConst<>+56(SB)/8, $0x3ff0000000000000  // ONE
DATA elemConst<>+64(SB)/8, $0x3e5af38a9b0ec855  // EXPC+0: c9
DATA elemConst<>+72(SB)/8, $0x3e9289185613a3d6  // c8
DATA elemConst<>+80(SB)/8, $0x3ec71de0dae63bb3  // c7
DATA elemConst<>+88(SB)/8, $0x3efa019b90d2ae7a  // c6
DATA elemConst<>+96(SB)/8, $0x3f2a01a01a7c41d5  // c5
DATA elemConst<>+104(SB)/8, $0x3f56c16c1788bd90 // c4
DATA elemConst<>+112(SB)/8, $0x3f811111111109b3 // c3
DATA elemConst<>+120(SB)/8, $0x3fa5555555553d63 // c2
DATA elemConst<>+128(SB)/8, $0x3fc5555555555556 // c1
DATA elemConst<>+136(SB)/8, $0x3fe0000000000001 // c0
GLOBL elemConst<>(SB), RODATA|NOPTR, $144

// Permutation indices of the stride-2 walks, a byte per lane that
// VPMOVZXBQ widens: +0 the even lanes of a two-vector window
// (gatherS2Asm512); +8 and +16 each source lane twice, for the low and
// the high x vector (addS2Asm512).
DATA permIdx<>+0(SB)/8, $0x0e0c0a0806040200
DATA permIdx<>+8(SB)/8, $0x0303020201010000
DATA permIdx<>+16(SB)/8, $0x0707060605050404
GLOBL permIdx<>(SB), RODATA|NOPTR, $24

// p = Σ c_k·r^k ≈ (e^r − 1 − r)/r² for |r| ≤ ln2/2, by Horner: the
// degree-9 interpolant at Chebyshev nodes, which puts r + r²·p within
// 2^-52 relative of e^r − 1 (the Taylor polynomial needs degree 11).
#define EXPM1POLY(r, p) \
	VBCAST         C(EXPC), p; \
	VFMADD213.BCST C(EXPC+1), r, p; \
	VFMADD213.BCST C(EXPC+2), r, p; \
	VFMADD213.BCST C(EXPC+3), r, p; \
	VFMADD213.BCST C(EXPC+4), r, p; \
	VFMADD213.BCST C(EXPC+5), r, p; \
	VFMADD213.BCST C(EXPC+6), r, p; \
	VFMADD213.BCST C(EXPC+7), r, p; \
	VFMADD213.BCST C(EXPC+8), r, p; \
	VFMADD213.BCST C(EXPC+9), r, p

// Adam's Elem operands are float64 already: 8 lanes load as they are,
// and w −= d is one subtract.
#define ELOAD(mask, src, z, y) VMOVUPD.Z src, mask, z

#define ESUB(mask, d, dy) \
	VMOVUPD.Z (DI), mask, Z5; \
	VSUBPD    d, Z5, Z5; \
	VMOVUPD   Z5, mask, (DI)

#include "elem_amd64.h"
