// Skinny-M AVX-512 kernels, shared by the float64 and float32 builds:
// gemm_skinny_amd64_f64.s / gemm_skinny_amd64_f32.s define the element
// width (ESZ, ESHIFT, LANES, LSHIFT), the PD/PS mnemonics (VMOVU,
// VBCAST, VFMA, VADD, VSHUFQ) and the horizontal fold (DFOLD), then
// include this file. See gemm_skinny.go for when these run and why
// nothing is packed.
//
// Both kernels hold a 12-row × 2-vector block of C in Z8–Z31 for the
// whole k walk (Z0, Z1: the two B vectors of a step; Z2: one A element
// or vector) and exist in one copy per row count 1…12 — the ROWSn
// chains below expand a per-row macro n times — so a call neither
// computes nor touches a row it was not given. add=true loads the C
// block into the accumulators before the walk instead of adding it
// afterwards.

// ROWSn(M) expands M(r, address of A row r in the dot kernel, low
// accumulator, high accumulator) for r = 0…n-1.

#define ROWS1(M)  M(0, (SI), Z8, Z9)
#define ROWS2(M)  ROWS1(M); M(1, (SI)(R8*1), Z10, Z11)
#define ROWS3(M)  ROWS2(M); M(2, (SI)(R8*2), Z12, Z13)
#define ROWS4(M)  ROWS3(M); M(3, (SI)(R9*1), Z14, Z15)
#define ROWS5(M)  ROWS4(M); M(4, (SI)(R8*4), Z16, Z17)
#define ROWS6(M)  ROWS5(M); M(5, (SI)(R10*1), Z18, Z19)
#define ROWS7(M)  ROWS6(M); M(6, (SI)(R9*2), Z20, Z21)
#define ROWS8(M)  ROWS7(M); M(7, (SI)(R11*1), Z22, Z23)
#define ROWS9(M)  ROWS8(M); M(8, (SI)(R8*8), Z24, Z25)
#define ROWS10(M) ROWS9(M); M(9, (SI)(R12*1), Z26, Z27)
#define ROWS11(M) ROWS10(M); M(10, (SI)(R10*2), Z28, Z29)
#define ROWS12(M) ROWS11(M); M(11, (SI)(R13*1), Z30, Z31)

#define ZEROACC \
	VPXORQ Z8, Z8, Z8; VPXORQ Z9, Z9, Z9; VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11; VPXORQ Z12, Z12, Z12; VPXORQ Z13, Z13, Z13; \
	VPXORQ Z14, Z14, Z14; VPXORQ Z15, Z15, Z15; VPXORQ Z16, Z16, Z16; \
	VPXORQ Z17, Z17, Z17; VPXORQ Z18, Z18, Z18; VPXORQ Z19, Z19, Z19; \
	VPXORQ Z20, Z20, Z20; VPXORQ Z21, Z21, Z21; VPXORQ Z22, Z22, Z22; \
	VPXORQ Z23, Z23, Z23; VPXORQ Z24, Z24, Z24; VPXORQ Z25, Z25, Z25; \
	VPXORQ Z26, Z26, Z26; VPXORQ Z27, Z27, Z27; VPXORQ Z28, Z28, Z28; \
	VPXORQ Z29, Z29, Z29; VPXORQ Z30, Z30, Z30; VPXORQ Z31, Z31, Z31

// Jump to the copy of a kernel built for the row count mr (1…12).
#define BYROWS(mr, l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11, l12) \
	CMPQ mr, $1; JEQ l1; CMPQ mr, $2; JEQ l2; CMPQ mr, $3; JEQ l3; \
	CMPQ mr, $4; JEQ l4; CMPQ mr, $5; JEQ l5; CMPQ mr, $6; JEQ l6; \
	CMPQ mr, $7; JEQ l7; CMPQ mr, $8; JEQ l8; CMPQ mr, $9; JEQ l9; \
	CMPQ mr, $10; JEQ l10; CMPQ mr, $11; JEQ l11; JMP l12

// func gemmSkinnyAsm512(c *Elem, ldc int, a, b *Elem, ldb, kc int, add bool, mr, nr int)
//
// C[mr×nr] (+)= A·B for one column strip of a row-major B, read in
// place: b points at B[0][j0], rows ldb apart, nr ≤ 2·LANES columns.
// a is A transposed, a[kk·mr + r], so the mr scalars one k step
// broadcasts are adjacent. Per k: two B vectors (K1/K2 zero-mask the
// lanes past nr, so no load reaches past a B row's end), mr
// broadcasts, 2·mr FMAs. C loads and stores go through the same masks.
// Consecutive k steps read lines a whole B row apart, a stride no
// hardware prefetcher follows, so each step prefetches the strip's two
// lines eight rows ahead (R11); the sweep that chose eight is in
// CHANGES.md, PR 19. A prefetch past B's last row touches nothing.

#define SLOAD(r, arow, lo, hi) \
	VMOVU.Z (DI), K1, lo; \
	VMOVU.Z 64(DI), K2, hi; \
	ADDQ    R8, DI

#define SSTORE(r, arow, lo, hi) \
	VMOVU lo, K1, (DI); \
	VMOVU hi, K2, 64(DI); \
	ADDQ  R8, DI

#define SROW(r, arow, lo, hi) \
	VBCAST (r*ESZ)(SI), Z2; \
	VFMA   Z0, Z2, lo; \
	VFMA   Z1, Z2, hi

#define SKINNY(entry, loop, ROWS, mr) \
entry: \
	TESTB AL, AL; \
	JZ    loop; \
	ROWS(SLOAD); \
	MOVQ  R10, DI; \
loop: \
	VMOVU.Z (BX), K1, Z0; \
	VMOVU.Z 64(BX), K2, Z1; \
	PREFETCHT0 (BX)(R11*1); \
	PREFETCHT0 64(BX)(R11*1); \
	ROWS(SROW); \
	ADDQ $(mr*ESZ), SI; \
	ADDQ R9, BX; \
	DECQ CX; \
	JNZ  loop; \
	ROWS(SSTORE); \
	VZEROUPPER; \
	RET

TEXT ·gemmSkinnyAsm512(SB), NOSPLIT, $0-72
	// K1, K2: the valid lanes of the strip's two vectors.
	MOVQ  nr+64(FP), CX
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	SHRQ  $LANES, AX
	KMOVW AX, K2

	MOVQ c+0(FP), DI
	MOVQ DI, R10
	MOVQ ldc+8(FP), R8
	SHLQ $ESHIFT, R8
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), BX
	MOVQ ldb+32(FP), R9
	SHLQ $ESHIFT, R9
	MOVQ kc+40(FP), CX
	LEAQ (R9*8), R11
	MOVBLZX add+48(FP), AX
	ZEROACC
	BYROWS(mr+56(FP), s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12)
	SKINNY(s1, sl1, ROWS1, 1)
	SKINNY(s2, sl2, ROWS2, 2)
	SKINNY(s3, sl3, ROWS3, 3)
	SKINNY(s4, sl4, ROWS4, 4)
	SKINNY(s5, sl5, ROWS5, 5)
	SKINNY(s6, sl6, ROWS6, 6)
	SKINNY(s7, sl7, ROWS7, 7)
	SKINNY(s8, sl8, ROWS8, 8)
	SKINNY(s9, sl9, ROWS9, 9)
	SKINNY(s10, sl10, ROWS10, 10)
	SKINNY(s11, sl11, ROWS11, 11)
	SKINNY(s12, sl12, ROWS12, 12)

// func gemmDotAsm512(c *Elem, ldc int, a *Elem, lda int, b *Elem, ldb, k int, add bool, mr, nr int)
//
// C[mr×nr] (+)= A·Bᵀ for nr ≤ 2 rows of a stored-transpose B, read in
// place: b points at row j0 of B (n×k, rows ldb apart), a at A (mr×k,
// rows lda apart). The k walk takes LANES elements of both B rows and
// of every A row per step and keeps mr×2 lane-wise partial sums; K3
// zero-masks the last step down to the k mod LANES elements that exist,
// on A and B alike. After the walk each pair of sums is folded
// (high half onto low, then horizontal adds) to the two adjacent C
// elements of its row, stored through K1. With nr = 1 the second B
// pointer aliases the first and K1 drops its column.

// Lane 0 of each accumulator starts at its C element (K6 = lane 0, K7 =
// lane 0 when the second column exists).
#define DLOAD(r, arow, lo, hi) \
	VMOVU.Z (DI), K6, lo; \
	VMOVU.Z ESZ(DI), K7, hi; \
	ADDQ    AX, DI

#define DROW(r, arow, lo, hi) \
	VMOVU.Z arow, K3, Z2; \
	VFMA    Z0, Z2, lo; \
	VFMA    Z1, Z2, hi

#define DSTORE(r, arow, lo, hi) \
	VSHUFQ $0xEE, lo, lo, Z0; \
	VADD   lo, Z0, Z0; \
	VSHUFQ $0xEE, hi, hi, Z1; \
	VADD   hi, Z1, Z1; \
	DFOLD; \
	VMOVU  X0, K1, (DI); \
	ADDQ   AX, DI

#define DOT(entry, loop, step, ROWS) \
entry: \
	CMPB add+56(FP), $0; \
	JEQ  loop; \
	ROWS(DLOAD); \
	MOVQ c+0(FP), DI; \
loop: \
	CMPQ  CX, $1; \
	JNE   step; \
	KMOVW K4, K3; \
step: \
	VMOVU.Z (BX), K3, Z0; \
	VMOVU.Z (DX), K3, Z1; \
	ROWS(DROW); \
	ADDQ $64, SI; \
	ADDQ $64, BX; \
	ADDQ $64, DX; \
	DECQ CX; \
	JNZ  loop; \
	ROWS(DSTORE); \
	VZEROUPPER; \
	RET

TEXT ·gemmDotAsm512(SB), NOSPLIT, $0-80
	// Row r of A is SI + r·lda: scaled-index forms of lda × {1,3,5,7,9,11}.
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R8
	SHLQ $ESHIFT, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	LEAQ (R9)(R8*4), R11
	LEAQ (R8)(R8*8), R12
	LEAQ (R9)(R8*8), R13

	// K3: every lane; K4: the lanes of the last step; CX: steps.
	MOVQ   k+48(FP), DX
	LEAQ   -1(DX), CX
	ANDQ   $(LANES-1), CX
	MOVL   $2, AX
	SHLQ   CX, AX
	DECQ   AX
	KMOVW  AX, K4
	KXNORW K3, K3, K3
	LEAQ   (LANES-1)(DX), CX
	SHRQ   $LSHIFT, CX

	// K1: the nr C columns. K6/K7: lane 0 / lane 0 if nr = 2.
	MOVL  $1, AX
	KMOVW AX, K6
	MOVQ  nr+72(FP), AX
	LEAQ  -1(AX)(AX*1), AX
	KMOVW AX, K1
	SHRL  $1, AX
	KMOVW AX, K7

	// Second B row, or the first again when there is none to read.
	MOVQ  b+32(FP), BX
	MOVQ  ldb+40(FP), DX
	SHLQ  $ESHIFT, DX
	IMULQ AX, DX
	ADDQ  BX, DX

	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), AX
	SHLQ $ESHIFT, AX
	ZEROACC
	BYROWS(mr+64(FP), d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12)
	DOT(d1, dl1, ds1, ROWS1)
	DOT(d2, dl2, ds2, ROWS2)
	DOT(d3, dl3, ds3, ROWS3)
	DOT(d4, dl4, ds4, ROWS4)
	DOT(d5, dl5, ds5, ROWS5)
	DOT(d6, dl6, ds6, ROWS6)
	DOT(d7, dl7, ds7, ROWS7)
	DOT(d8, dl8, ds8, ROWS8)
	DOT(d9, dl9, ds9, ROWS9)
	DOT(d10, dl10, ds10, ROWS10)
	DOT(d11, dl11, ds11, ROWS11)
	DOT(d12, dl12, ds12, ROWS12)
