// Element-wise AVX-512 kernels, shared by the float64 and float32
// builds: elem_amd64_f64.s / elem_amd64_f32.s define the element width
// (ESZ, LANES), the PD/PS mnemonics, the dtype's constant table
// (elemConst<>, laid out by the slot numbers below), its expm1
// polynomial (EXPM1POLY), the stride-2 walks' permutation indices
// (permIdx<>) and how Adam widens and narrows an Elem (ELOAD, ESUB),
// then include this file. See elem.go for when these run. tanh's
// constant operands are embedded broadcasts from elemConst<> (R8), so
// that kernel holds no constant register.

// Slots of elemConst<>, in elements.
#define SIGN   0
#define ABS    1
#define CLAMP  2
#define MINUS2 3
#define LOG2E  4
#define LN2HI  5
#define LN2LO  6
#define ONE    7
#define EXPC   8

#define C(i) ((i)*ESZ)(R8)

// func tanhAsm512(dst, src *Elem, n int)
//
// dst[i] = tanh(src[i]) for i < n, LANES elements per step; the last
// n mod LANES go through the K1 mask, so no load or store reaches past
// either array's end. dst may equal src. Per vector, on a = |x|:
//
//   - m = e^y − 1 for y = −2·min(a, CLAMP): a Cody–Waite reduction
//     y = n·ln2 + r with |r| ≤ ln2/2, e^r − 1 = r + r²·EXPM1POLY(r), and
//     m = 2^n·(e^r − 1) + (2^n − 1). The clamp keeps +Inf out of the
//     reduction and lies past the point where tanh rounds to 1. VMIN
//     returns its second source when one is NaN, which is a.
//   - tanh a = −m/(2 + m), the denominator formed as
//     2^n·(e^r − 1) + (2^n + 1) so it is rounded once. Computing e^y − 1
//     rather than e^y means no 1 − e^y cancels at small a, so one
//     formula serves the whole range; once m rounds to −1 the quotient
//     is exactly 1. Every step is an IEEE-rounded operation, so the
//     result does not depend on the CPU.
//   - The magnitude then takes x's sign bit (VPTERNLOG as a bit select),
//     so tanh(−x) = −tanh(x) bit for bit and ±0 keeps its sign.
//
// The divide is one correctly rounded instruction. VRCP14 and two Newton
// steps in its place measured 1.25 against 1.05 ns per float64 element
// and added an ulp of error.

#define TANHV(mask) \
	VMOVU.Z         (SI), mask, Z0; \
	VAND.BCST       C(ABS), Z0, Z1; \
	VBCAST          C(CLAMP), Z2; \
	VMIN            Z1, Z2, Z2; \
	VMUL.BCST       C(MINUS2), Z2, Z2; \
	VMUL.BCST       C(LOG2E), Z2, Z3; \
	VRNDSCALE       $0, Z3, Z3; \
	VFNMADD231.BCST C(LN2HI), Z3, Z2; \
	VFNMADD231.BCST C(LN2LO), Z3, Z2; \
	VMUL            Z2, Z2, Z5; \
	EXPM1POLY(Z2, Z4); \
	VFMADD213       Z2, Z5, Z4; \
	VBCAST          C(ONE), Z7; \
	VSCALEF         Z3, Z7, Z7; \
	VSUB.BCST       C(ONE), Z7, Z6; \
	VADD.BCST       C(ONE), Z7, Z8; \
	VFMADD231       Z4, Z7, Z8; \
	VFMADD213       Z6, Z7, Z4; \
	VDIV            Z8, Z4, Z4; \
	VTERNLOG.BCST   $0xD8, C(SIGN), Z0, Z4; \
	VMOVU           Z4, mask, (DI)

TEXT ·tanhAsm512(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	LEAQ   elemConst<>(SB), R8
	KXNORW K1, K1, K1
	CMPQ   CX, $LANES
	JLT    tail

loop:
	TANHV(K1)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $LANES, CX
	CMPQ CX, $LANES
	JGE  loop

tail:
	// K1: the n mod LANES lanes that remain, if any.
	TESTQ CX, CX
	JZ    done
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	TANHV(K1)

done:
	VZEROUPPER
	RET

// func adamAsm512(w, grad *Elem, m, v *float64, n int, k *[8]float64)
//
// One Adam step on i < n, 8 lanes per step whatever the dtype (the
// moments are float64), the last n mod 8 through the K1 mask. k holds
// β1, 1−β1, β2, 1−β2, lr, ic1, ic2, ε, broadcast into Z24–Z31. Each
// step evaluates the scalar loop's expressions in its order, one
// rounded multiply, add, sqrt or divide at a time and no FMA:
//
//   m = β1·m + (1−β1)·g
//   v = β2·v + ((1−β2)·g)·g
//   w = w − Elem((lr·(m·ic1)) / (√(v·ic2) + ε))
//
// IEEE multiply and add commute exactly and VSQRTPD and VDIVPD round
// correctly, so w, m and v come out bit for bit as the scalar loop
// leaves them. ELOAD widens g to float64; ESUB narrows the step to Elem
// and subtracts it from w in Elem, as w[i] -= Elem(…) does.

#define ADAMV(mask) \
	ELOAD(mask, (SI), Z0, Y0); \
	VMOVUPD.Z (R10), mask, Z1; \
	VMOVUPD.Z (R11), mask, Z2; \
	VMULPD    Z24, Z1, Z1; \
	VMULPD    Z25, Z0, Z3; \
	VADDPD    Z3, Z1, Z1; \
	VMULPD    Z26, Z2, Z2; \
	VMULPD    Z27, Z0, Z4; \
	VMULPD    Z0, Z4, Z4; \
	VADDPD    Z4, Z2, Z2; \
	VMOVUPD   Z1, mask, (R10); \
	VMOVUPD   Z2, mask, (R11); \
	VMULPD    Z29, Z1, Z1; \
	VMULPD    Z28, Z1, Z1; \
	VMULPD    Z30, Z2, Z2; \
	VSQRTPD   Z2, Z2; \
	VADDPD    Z31, Z2, Z2; \
	VDIVPD    Z2, Z1, Z1; \
	ESUB(mask, Z1, Y1)

TEXT ·adamAsm512(SB), NOSPLIT, $0-48
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R10
	MOVQ         v+24(FP), R11
	MOVQ         n+32(FP), CX
	MOVQ         k+40(FP), R8
	VBROADCASTSD 0(R8), Z24
	VBROADCASTSD 8(R8), Z25
	VBROADCASTSD 16(R8), Z26
	VBROADCASTSD 24(R8), Z27
	VBROADCASTSD 32(R8), Z28
	VBROADCASTSD 40(R8), Z29
	VBROADCASTSD 48(R8), Z30
	VBROADCASTSD 56(R8), Z31
	KXNORW       K1, K1, K1
	CMPQ         CX, $8
	JLT          tail

loop:
	ADAMV(K1)
	ADDQ $(8*ESZ), DI
	ADDQ $(8*ESZ), SI
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  loop

tail:
	// K1: the n mod 8 lanes that remain, if any.
	TESTQ CX, CX
	JZ    done
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	ADAMV(K1)

done:
	VZEROUPPER
	RET

// func gateAsm512(dst, v, x *Elem, n int, alpha *Elem)
//
// The rectifier gate on i < n, LANES elements per step, the last
// n mod LANES through the K1 mask: dst[i] = v[i]·s with s = 1 where the
// bits of x[i], read as a signed integer, are > 0 and s = *alpha
// elsewhere. VPCMPGT against zero (Z29) picks the lanes, VBLENDM the
// slope, and one multiply scales v, as the Go loop's v[i]·slope[k] does:
// v·1 is v for every v but a signalling NaN, which the multiply quiets in
// both. dst may equal v or x.

#define GATEV(mask) \
	VMOVU.Z (DX), mask, Z0; \
	VPCMPGT Z29, Z0, K2; \
	VBLENDM Z31, Z30, K2, Z1; \
	VMOVU.Z (SI), mask, Z2; \
	VMUL    Z1, Z2, Z2; \
	VMOVU   Z2, mask, (DI)

TEXT ·gateAsm512(SB), NOSPLIT, $0-40
	MOVQ   dst+0(FP), DI
	MOVQ   v+8(FP), SI
	MOVQ   x+16(FP), DX
	MOVQ   n+24(FP), CX
	MOVQ   alpha+32(FP), AX
	LEAQ   elemConst<>(SB), R8
	VBCAST (AX), Z30
	VBCAST C(ONE), Z31
	VPXORQ Z29, Z29, Z29
	KXNORW K1, K1, K1
	CMPQ   CX, $LANES
	JLT    tail

loop:
	GATEV(K1)
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, DX
	SUBQ $LANES, CX
	CMPQ CX, $LANES
	JGE  loop

tail:
	// K1: the n mod LANES lanes that remain, if any.
	TESTQ CX, CX
	JZ    done
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	GATEV(K1)

done:
	VZEROUPPER
	RET

// The two stride-2 layout walks work on a grid of rows (r < rows) and
// walk it one LANES-wide column chunk at a time, every row of a chunk
// under the same K masks, so the scalar mask arithmetic runs once per
// chunk rather than once per row. Rows must not overlap, so no element
// depends on the order the chunks visit it in.

// func gatherS2Asm512(dst, src *Elem, rows, dstStride, srcStride, lo, m int)
//
// dst[r·dstStride + lo + t] = src[r·srcStride + 2t] for t < m, and
// dst[r·dstStride + p] = +0 for every other p < dstStride; lo + m ≤
// dstStride, m ≥ 1, rows ≥ 1. Output position p holds source element
// 2(p − lo), so the chunk at p = j reads the 2·LANES-element window at
// o = 2j − 2lo and keeps its even lanes (VPERMT2 by permIdx<>, Z5).
// K2:K3 zero-mask the window to the elements 0 ≤ o + b < 2m − 1, the
// first through the last the Go loop reads: the masked-out lanes become
// the zeros either side of the run, and no load reaches outside it. K1
// masks the store to the chunk's positions below dstStride.

TEXT ·gatherS2Asm512(SB), NOSPLIT, $0-56
	MOVQ      dst+0(FP), R13
	MOVQ      src+8(FP), SI
	MOVQ      rows+16(FP), R9
	MOVQ      dstStride+24(FP), R10
	MOVQ      srcStride+32(FP), R11
	MOVQ      lo+40(FP), BX
	MOVQ      m+48(FP), R12
	VPMOVZXB  permIdx<>+0(SB), Z5
	LEAQ      -1(R12)(R12*1), R12 // 2m − 1
	SHLQ      $1, BX
	NEGQ      BX                  // o = −2lo at j = 0
	LEAQ      (SI)(BX*ESZ), R14   // src + o: the window of chunk j
	XORL      DX, DX              // j

gchunk:
	// K1: positions j … min(j + LANES, dstStride) − 1.
	MOVQ    R10, CX
	SUBQ    DX, CX
	MOVL    $LANES, AX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	MOVL    $1, AX
	SHLQ    CX, AX
	DECQ    AX
	KMOVW   AX, K1

	// K2:K3: window lanes b in [a, e), a = −o and e = 2m − 1 − o, both
	// clamped to [0, 2·LANES]; empty when e ≤ a.
	XORL    SI, SI
	MOVL    $(2*LANES), DI
	MOVQ    BX, CX
	NEGQ    CX
	CMPQ    CX, SI
	CMOVQLT SI, CX
	CMPQ    CX, DI
	CMOVQGT DI, CX
	MOVL    $1, R8
	SHLQ    CX, R8
	MOVQ    R12, CX
	SUBQ    BX, CX
	CMPQ    CX, SI
	CMOVQLT SI, CX
	CMPQ    CX, DI
	CMOVQGT DI, CX
	MOVL    $1, AX
	SHLQ    CX, AX
	SUBQ    R8, AX
	CMPQ    AX, SI
	CMOVQLT SI, AX
	KMOVW   AX, K2
	SHRQ    $LANES, AX
	KMOVW   AX, K3

	MOVQ R13, DI
	MOVQ R14, SI
	MOVQ R9, R8

grow:
	VMOVU.Z (SI), K2, Z0
	VMOVU.Z 64(SI), K3, Z1
	VPERMT2 Z1, Z5, Z0
	VMOVU   Z0, K1, (DI)
	LEAQ    (SI)(R11*ESZ), SI
	LEAQ    (DI)(R10*ESZ), DI
	DECQ    R8
	JNZ     grow

	ADDQ $LANES, DX
	ADDQ $(2*LANES), BX
	ADDQ $64, R13
	ADDQ $128, R14
	CMPQ DX, R10
	JLT  gchunk
	VZEROUPPER
	RET

// func addS2Asm512(x, src *Elem, rows, xStride, srcStride, m int)
//
// x[r·xStride + 2t] += src[r·srcStride + t] for t < m; m ≥ 1, rows ≥ 1.
// A chunk of q ≤ LANES source elements (K1) spreads over two x vectors:
// VPERM by permIdx<>'s other two tables (Z5, Z6) puts src[t] in lanes
// 2t and 2t + 1, and the add and the store are merge-masked to the even
// lanes below 2q − 1 (K2, K3), so an odd lane — a −0 included — is
// neither added to nor written, and no access reaches past x's last
// even element. Each sum is x + src, rounded once, as the Go loop's
// x[i] += v.

TEXT ·addS2Asm512(SB), NOSPLIT, $0-48
	MOVQ      x+0(FP), R13
	MOVQ      src+8(FP), R14
	MOVQ      rows+16(FP), R9
	MOVQ      xStride+24(FP), R10
	MOVQ      srcStride+32(FP), R11
	MOVQ      m+40(FP), R12
	VPMOVZXB  permIdx<>+LANES(SB), Z5
	VPMOVZXB  permIdx<>+(2*LANES)(SB), Z6
	XORL      DX, DX // t0

achunk:
	// K1: q = min(LANES, m − t0) source lanes; K2:K3: the even x lanes
	// below 2q − 1.
	MOVQ    R12, CX
	SUBQ    DX, CX
	MOVL    $LANES, AX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	MOVL    $1, AX
	SHLQ    CX, AX
	DECQ    AX
	KMOVW   AX, K1
	LEAQ    -1(CX)(CX*1), CX
	MOVL    $1, AX
	SHLQ    CX, AX
	DECQ    AX
	ANDQ    $0x55555555, AX
	KMOVW   AX, K2
	SHRQ    $LANES, AX
	KMOVW   AX, K3

	MOVQ R13, DI
	MOVQ R14, SI
	MOVQ R9, R8

arow:
	VMOVU.Z (SI), K1, Z0
	VPERM   Z0, Z5, Z1
	VPERM   Z0, Z6, Z2
	VMOVU.Z (DI), K2, Z3
	VADD    Z1, Z3, K2, Z3
	VMOVU   Z3, K2, (DI)
	VMOVU.Z 64(DI), K3, Z4
	VADD    Z2, Z4, K3, Z4
	VMOVU   Z4, K3, 64(DI)
	LEAQ    (SI)(R11*ESZ), SI
	LEAQ    (DI)(R10*ESZ), DI
	DECQ    R8
	JNZ     arow

	ADDQ $LANES, DX
	ADDQ $64, R14
	ADDQ $128, R13
	CMPQ DX, R12
	JLT  achunk
	VZEROUPPER
	RET
