// AVX-512 kernels of matmul dispatch step 1 and of the Dense bias
// passes, shared by the float64 and float32 builds: matmul_amd64_f64.s /
// matmul_amd64_f32.s define the element width (ESZ, ESHIFT, LANES,
// LSHIFT), the PD/PS and lane-integer mnemonics and the lane numbers
// (laneIdx<>), then include this file. See smallProduct (matmul.go) for
// how the three products map onto the product kernel and the transpose,
// and ops.go for the bias passes.

// func smallMMAsm512(c *Elem, ldc int, a *Elem, ars, acs int, b *Elem, ldb, m, k, n, mode int)
//
// C[i][j] for i < m, j < n, C rows ldc apart: lanes run across j, so a
// B row (ldb apart, k of them) is read in place as vectors, and A(i, kk)
// = a[i·ars + kk·acs] is broadcast — MatMul's row-major A and MatMulT1's
// stored transpose alike. mode 0 stores the sum from +0, mode 1 starts
// it from C, mode 2 forms it from +0 and adds it to C once (MatMulT2's
// accumulate). Each product A·B is rounded by its own VMUL and added by
// its own VADD, kk ascending, exactly as the Go loops' `+= x*y` do; no
// FMA, and no sum seeded with its first product (+0 + −0 is +0).
//
// C is walked in column blocks of four vectors (K1–K4 zero-mask the
// lanes past n, so no load reaches past a B or C row), and each block
// in row blocks of four rows, then two, then one: one copy of the walk
// per (rows, vectors) ∈ {4, 2, 1} × {4, 2, 1}, the block's width
// picking the vector count. Row r, vector v accumulates in Z(4r+v);
// Z16–Z19 hold the step's B vectors, Z20–Z23 the four broadcasts,
// Z24–Z28 products and C.
//
// Registers: AX the A walk (C tile around it), BX the block's column
// offset in bytes, CX the k count (3·ldc around it), DX the B walk, SI
// and DI the row block's A and C, R8 ldc, R9 ars, R10 acs and R11 ldb in
// bytes, R12 the rows left, R13 3·ars, R14 the columns left.

#define CROW0(d) d(AX)
#define CROW1(d) d(AX)(R8*1)
#define CROW2(d) d(AX)(R8*2)
#define CROW3(d) d(AX)(CX*1)

// RR(M) expands M(address of A row r at the walk's step, C row r,
// broadcast register, four accumulators) for the rows of a block.
#define RR4(M) \
	M((AX), CROW0, Z20, Z0, Z1, Z2, Z3); \
	M((AX)(R9*1), CROW1, Z21, Z4, Z5, Z6, Z7); \
	M((AX)(R9*2), CROW2, Z22, Z8, Z9, Z10, Z11); \
	M((AX)(R13*1), CROW3, Z23, Z12, Z13, Z14, Z15)
#define RR2(M) \
	M((AX), CROW0, Z20, Z0, Z1, Z2, Z3); \
	M((AX)(R9*1), CROW1, Z21, Z4, Z5, Z6, Z7)
#define RR1(M) M((AX), CROW0, Z20, Z0, Z1, Z2, Z3)

// Per-row operations on the first 4, 2 or 1 accumulators.
#define ZERO4(ar, cr, z, a0, a1, a2, a3) \
	VPXORQ a0, a0, a0; VPXORQ a1, a1, a1; VPXORQ a2, a2, a2; VPXORQ a3, a3, a3
#define ZERO2(ar, cr, z, a0, a1, a2, a3) VPXORQ a0, a0, a0; VPXORQ a1, a1, a1
#define ZERO1(ar, cr, z, a0, a1, a2, a3) VPXORQ a0, a0, a0

#define LDC4(ar, cr, z, a0, a1, a2, a3) \
	VMOVU.Z cr(0), K1, a0; VMOVU.Z cr(64), K2, a1; \
	VMOVU.Z cr(128), K3, a2; VMOVU.Z cr(192), K4, a3
#define LDC2(ar, cr, z, a0, a1, a2, a3) VMOVU.Z cr(0), K1, a0; VMOVU.Z cr(64), K2, a1
#define LDC1(ar, cr, z, a0, a1, a2, a3) VMOVU.Z cr(0), K1, a0

// C + sum, C the first operand as in the Go loop's c += s.
#define ADC4(ar, cr, z, a0, a1, a2, a3) \
	VMOVU.Z cr(0), K1, Z28; VADD a0, Z28, a0; \
	VMOVU.Z cr(64), K2, Z28; VADD a1, Z28, a1; \
	VMOVU.Z cr(128), K3, Z28; VADD a2, Z28, a2; \
	VMOVU.Z cr(192), K4, Z28; VADD a3, Z28, a3
#define ADC2(ar, cr, z, a0, a1, a2, a3) \
	VMOVU.Z cr(0), K1, Z28; VADD a0, Z28, a0; \
	VMOVU.Z cr(64), K2, Z28; VADD a1, Z28, a1
#define ADC1(ar, cr, z, a0, a1, a2, a3) VMOVU.Z cr(0), K1, Z28; VADD a0, Z28, a0

#define STC4(ar, cr, z, a0, a1, a2, a3) \
	VMOVU a0, K1, cr(0); VMOVU a1, K2, cr(64); \
	VMOVU a2, K3, cr(128); VMOVU a3, K4, cr(192)
#define STC2(ar, cr, z, a0, a1, a2, a3) VMOVU a0, K1, cr(0); VMOVU a1, K2, cr(64)
#define STC1(ar, cr, z, a0, a1, a2, a3) VMOVU a0, K1, cr(0)

// acc += A(r, kk)·B[kk]: the product rounded, then the add.
#define MAC4(ar, cr, z, a0, a1, a2, a3) \
	VBCAST ar, z; \
	VMUL Z16, z, Z24; VADD Z24, a0, a0; \
	VMUL Z17, z, Z25; VADD Z25, a1, a1; \
	VMUL Z18, z, Z26; VADD Z26, a2, a2; \
	VMUL Z19, z, Z27; VADD Z27, a3, a3
#define MAC2(ar, cr, z, a0, a1, a2, a3) \
	VBCAST ar, z; \
	VMUL Z16, z, Z24; VADD Z24, a0, a0; \
	VMUL Z17, z, Z25; VADD Z25, a1, a1
#define MAC1(ar, cr, z, a0, a1, a2, a3) VBCAST ar, z; VMUL Z16, z, Z24; VADD Z24, a0, a0

#define LDB4 \
	VMOVU.Z (DX), K1, Z16; VMOVU.Z 64(DX), K2, Z17; \
	VMOVU.Z 128(DX), K3, Z18; VMOVU.Z 192(DX), K4, Z19
#define LDB2 VMOVU.Z (DX), K1, Z16; VMOVU.Z 64(DX), K2, Z17
#define LDB1 VMOVU.Z (DX), K1, Z16

// One block of C: start it (from C in mode 1), walk k, add C in mode 2,
// store.
#define TILE(RR, ZERO, LDC, LDB, MAC, ADC, STC, lwalk, lloop, lstore) \
	LEAQ (DI)(BX*1), AX; \
	LEAQ (R8)(R8*2), CX; \
	RR(ZERO); \
	CMPQ mode+80(FP), $1; \
	JNE  lwalk; \
	RR(LDC); \
lwalk: \
	MOVQ SI, AX; \
	MOVQ b+40(FP), DX; \
	ADDQ BX, DX; \
	MOVQ k+64(FP), CX; \
lloop: \
	LDB; \
	RR(MAC); \
	ADDQ R10, AX; \
	ADDQ R11, DX; \
	DECQ CX; \
	JNZ  lloop; \
	LEAQ (DI)(BX*1), AX; \
	LEAQ (R8)(R8*2), CX; \
	CMPQ mode+80(FP), $2; \
	JNE  lstore; \
	RR(ADC); \
lstore: \
	RR(STC)

// The rows of one column block: blocks of four, then two, then one.
#define ROWS(ZERO, LDC, LDB, MAC, ADC, STC, l4, l2, l1, w4, p4, s4, w2, p2, s2, w1, p1, s1) \
l4: \
	CMPQ R12, $4; \
	JLT  l2; \
	TILE(RR4, ZERO, LDC, LDB, MAC, ADC, STC, w4, p4, s4); \
	LEAQ (DI)(R8*4), DI; \
	LEAQ (SI)(R9*4), SI; \
	SUBQ $4, R12; \
	JMP  l4; \
l2: \
	CMPQ R12, $2; \
	JLT  l1; \
	TILE(RR2, ZERO, LDC, LDB, MAC, ADC, STC, w2, p2, s2); \
	LEAQ (DI)(R8*2), DI; \
	LEAQ (SI)(R9*2), SI; \
	SUBQ $2, R12; \
l1: \
	TESTQ R12, R12; \
	JZ    colnext; \
	TILE(RR1, ZERO, LDC, LDB, MAC, ADC, STC, w1, p1, s1); \
	JMP   colnext

// K1–K4: the lanes below w of four consecutive vectors, w = cnt; uses
// AX, CX, DX.
#define MASKS4(cnt) \
	MOVQ    cnt, CX; \
	MOVL    $1, AX; \
	SHLQ    CX, AX; \
	DECQ    AX; \
	MOVQ    $-1, DX; \
	CMPQ    cnt, $(4*LANES); \
	CMOVQGE DX, AX; \
	KMOVW   AX, K1; \
	SHRQ    $LANES, AX; \
	KMOVW   AX, K2; \
	SHRQ    $LANES, AX; \
	KMOVW   AX, K3; \
	SHRQ    $LANES, AX; \
	KMOVW   AX, K4

TEXT ·smallMMAsm512(SB), NOSPLIT, $0-88
	MOVQ ldc+8(FP), R8
	SHLQ $ESHIFT, R8
	MOVQ ars+24(FP), R9
	SHLQ $ESHIFT, R9
	LEAQ (R9)(R9*2), R13
	MOVQ acs+32(FP), R10
	SHLQ $ESHIFT, R10
	MOVQ ldb+48(FP), R11
	SHLQ $ESHIFT, R11
	MOVQ n+72(FP), R14
	XORL BX, BX

colblk:
	MASKS4(R14)
	MOVQ c+0(FP), DI
	MOVQ a+16(FP), SI
	MOVQ m+56(FP), R12
	CMPQ R14, $(2*LANES)
	JGT  v4
	CMPQ R14, $LANES
	JGT  v2
	ROWS(ZERO1, LDC1, LDB1, MAC1, ADC1, STC1, r14, r12, r11, w14, p14, s14, w12, p12, s12, w11, p11, s11)

v2:
	ROWS(ZERO2, LDC2, LDB2, MAC2, ADC2, STC2, r24, r22, r21, w24, p24, s24, w22, p22, s22, w21, p21, s21)

v4:
	ROWS(ZERO4, LDC4, LDB4, MAC4, ADC4, STC4, r44, r42, r41, w44, p44, s44, w42, p42, s42, w41, p41, s41)

colnext:
	ADDQ $256, BX
	SUBQ $(4*LANES), R14
	JGT  colblk
	VZEROUPPER
	RET

// func addRowAsm512(x, v *Elem, rows, cols int)
//
// x[r·cols + j] += v[j] for r < rows, j < cols, in column blocks of four
// vectors (MASKS4 zero-masks the lanes past cols, so no access reaches
// past a row): the block's four v vectors (Z4–Z7) are loaded once and
// added to every row, x first as in the Go loop's row[j] += v[j].

#define ADDROWV(off, mask, vz) \
	VMOVU.Z off(DX), mask, Z0; \
	VADD    vz, Z0, Z0; \
	VMOVU   Z0, mask, off(DX)

TEXT ·addRowAsm512(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ rows+16(FP), R9
	MOVQ cols+24(FP), R12
	LEAQ (R12*ESZ), R11 // a row in bytes

rblk:
	MASKS4(R12)
	VMOVU.Z (SI), K1, Z4
	VMOVU.Z 64(SI), K2, Z5
	VMOVU.Z 128(SI), K3, Z6
	VMOVU.Z 192(SI), K4, Z7
	MOVQ    DI, DX
	MOVQ    R9, R8

rrow:
	ADDROWV(0, K1, Z4)
	ADDROWV(64, K2, Z5)
	ADDROWV(128, K3, Z6)
	ADDROWV(192, K4, Z7)
	ADDQ R11, DX
	DECQ R8
	JNZ  rrow

	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $(4*LANES), R12
	JGT  rblk
	VZEROUPPER
	RET

// func addRowNarrowAsm512(x, v *Elem, n, cols int)
//
// x[e] += v[e mod cols] for e < n, 1 ≤ cols ≤ 2·LANES: AddRowVecInPlace
// on rows that are not whole vectors, walked as one flat run. Row by
// row, each row's masked store would overlap the next row's load, which
// must then wait for the store to reach the cache (about 13 ns a row,
// measured: slower than the Go loop). Here every vector is stored once:
// v sits in Z4:Z5 (K1:K2 zero-mask it to cols elements), and each
// vector's lanes pick their element of it through the index vector
// Z6 = (e + l) mod cols, which advances by LANES mod cols (Z7) a
// vector and wraps below cols (Z8) with one masked subtract.

#define NARROWV(mask) \
	VMOVDQU64 Z6, Z1; \
	VPERMI2   Z5, Z4, Z1; \
	VMOVU.Z   (DI), mask, Z0; \
	VADD      Z1, Z0, Z0; \
	VMOVU     Z0, mask, (DI); \
	VPADD     Z7, Z6, Z6; \
	VPCMPU    $5, Z8, Z6, K3; \
	VPSUB     Z8, Z6, K3, Z6

TEXT ·addRowNarrowAsm512(SB), NOSPLIT, $0-32
	MOVQ     x+0(FP), DI
	MOVQ     v+8(FP), SI
	MOVQ     n+16(FP), R9
	MOVQ     cols+24(FP), R10
	MOVQ     R10, CX
	MOVL     $1, AX
	SHLQ     CX, AX
	DECQ     AX
	KMOVW    AX, K1
	SHRQ     $LANES, AX
	KMOVW    AX, K2
	VMOVU.Z  (SI), K1, Z4
	VMOVU.Z  64(SI), K2, Z5
	VPBCASTI R10, Z8
	VPMOVZXB laneIdx<>(SB), Z6

wrap:
	// Z6 = l mod cols, by subtracting cols from the lanes at or past it.
	VPCMPU   $5, Z8, Z6, K3
	KORTESTW K3, K3
	JZ       wrapped
	VPSUB    Z8, Z6, K3, Z6
	JMP      wrap

wrapped:
	MOVL     $LANES, AX
	XORL     DX, DX
	DIVQ     R10
	VPBCASTI DX, Z7
	KXNORW   K1, K1, K1
	CMPQ     R9, $LANES
	JLT      ntail

nloop:
	NARROWV(K1)
	ADDQ $64, DI
	SUBQ $LANES, R9
	CMPQ R9, $LANES
	JGE  nloop

ntail:
	TESTQ R9, R9
	JZ    ndone
	MOVQ  R9, CX
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	NARROWV(K1)

ndone:
	VZEROUPPER
	RET

// func sumRowsAsm512(out, x *Elem, rows, cols int)
//
// out[j] += x[r·cols + j] for r = 0, 1, …, rows − 1 in turn, j < cols,
// in column blocks of four vectors (MASKS4 zero-masks the lanes past
// cols, so no access reaches past a row): the block's four out vectors
// (Z0–Z3) take every row's add in order, out first as in the Go loop's
// out[j] += v, and are stored once.

#define SUMROWV(off, mask, acc) \
	VMOVU.Z off(DX), mask, Z4; \
	VADD    Z4, acc, acc

TEXT ·sumRowsAsm512(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ rows+16(FP), R9
	MOVQ cols+24(FP), R12
	LEAQ (R12*ESZ), R11

sblk:
	MASKS4(R12)
	VMOVU.Z (DI), K1, Z0
	VMOVU.Z 64(DI), K2, Z1
	VMOVU.Z 128(DI), K3, Z2
	VMOVU.Z 192(DI), K4, Z3
	MOVQ    SI, DX
	MOVQ    R9, R8

srow:
	SUMROWV(0, K1, Z0)
	SUMROWV(64, K2, Z1)
	SUMROWV(128, K3, Z2)
	SUMROWV(192, K4, Z3)
	ADDQ R11, DX
	DECQ R8
	JNZ  srow

	VMOVU Z0, K1, (DI)
	VMOVU Z1, K2, 64(DI)
	VMOVU Z2, K3, 128(DI)
	VMOVU Z3, K4, 192(DI)
	ADDQ  $256, DI
	ADDQ  $256, SI
	SUBQ  $(4*LANES), R12
	JGT   sblk
	VZEROUPPER
	RET

// func transposeAsm512(dst, src *Elem, rows, cols, lds int)
//
// dst[c·rows + r] = src[r·lds + c] for r < rows, c < cols: the rows×cols
// block of src (rows lds apart) transposed and packed. Each column of
// src is gathered LANES rows at a time through the index vector l·lds
// (Z1) and stored as a run of dst; K1 masks a column's last rows mod
// LANES, so no gather or store reaches past either operand. An 8×8
// register-tiled transpose (unpacks and 128-bit lane shuffles) ran the
// transposing products up to 2× faster in BenchmarkSmallProducts, but
// ring-tiny-n8's op_ms_p50_1cpu did not tell the two apart (the tiles
// won 3 of 8 alternating pairs), so the shorter gather stays.

TEXT ·transposeAsm512(SB), NOSPLIT, $0-40
	MOVQ     dst+0(FP), DI
	MOVQ     src+8(FP), SI
	MOVQ     rows+16(FP), R8
	MOVQ     cols+24(FP), R9
	MOVQ     lds+32(FP), R10
	VPMOVZXB laneIdx<>(SB), Z1
	VPBCASTI R10, Z2
	VPMULL   Z2, Z1, Z1
	SHLQ     $(ESHIFT+LSHIFT), R10
	MOVQ     R8, R11
	SHRQ     $LSHIFT, R11
	ANDQ     $(LANES-1), R8
	MOVQ     R8, CX
	MOVL     $1, AX
	SHLQ     CX, AX
	DECQ     AX
	KMOVW    AX, K1
	SHLQ     $ESHIFT, R8

tcol:
	MOVQ  SI, DX
	MOVQ  R11, CX
	TESTQ CX, CX
	JZ    ttail

tfull:
	KXNORW  K2, K2, K2
	VGATHER (DX)(Z1*ESZ), K2, Z0
	VMOVU   Z0, (DI)
	ADDQ    R10, DX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     tfull

ttail:
	KORTESTW K1, K1
	JZ       tnext
	KMOVW    K1, K2
	VGATHER  (DX)(Z1*ESZ), K2, Z0
	VMOVU    Z0, K1, (DI)
	ADDQ     R8, DI

tnext:
	ADDQ $ESZ, SI
	DECQ R9
	JNZ  tcol
	VZEROUPPER
	RET
