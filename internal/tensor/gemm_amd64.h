// Packed GEMM micro-kernels, shared by the float64 and float32 builds:
// gemm_amd64_f64.s / gemm_amd64_f32.s define the element width (ESZ,
// ESHIFT) and the PD/PS mnemonics (VMOVU, VBCAST, VFMA, VADD, VXOR),
// then include this file. gemm.go specifies the packed panel layout and
// the micro-kernel contract; gemm_dims64.go / gemm_dims32.go the tiles.
//
// Both kernels hold one B vector per k step as a full accumulator row:
// a B panel is 32 B per k on AVX2 and 64 B per k on AVX-512 whatever
// the dtype, so only A-panel offsets scale with ESZ. The k loop is
// unrolled by two with a second accumulator set, so twice as many
// independent FMA chains as tile rows cover the FMA latency; the sets
// are summed once after the loop, and a kc tail of 1 runs the first set
// only.

// BFMA: acc += bv · (A-panel element off, broadcast through t).
#define BFMA(off, t, bv, acc) \
	VBCAST ((off)*ESZ)(SI), t; \
	VFMA   bv, t, acc

// ---------------------------------------------------------------------
// AVX2

// KSTEP4: one k step of the 4-row tile — the B vector at boff(BX) into
// bv, the four A elements from A-panel element a on.
#define KSTEP4(boff, a, bv, t, c0, c1, c2, c3) \
	VMOVU boff(BX), bv; \
	BFMA(a, t, bv, c0); \
	BFMA(a+1, t, bv, c1); \
	BFMA(a+2, t, bv, c2); \
	BFMA(a+3, t, bv, c3)

// func gemmKernelAsm(c *Elem, ldc int, a, b *Elem, kc int, add bool)
//
// 4-row × one-YMM micro-kernel (4×4 f64, 4×8 f32). The packed A panel
// holds 4 row elements per k, the packed B panel one YMM of columns per
// k. Four YMM accumulators hold the output rows, Y8–Y11 the odd-k set.
// Per k: one B load, four broadcasts of A, four FMAs.
TEXT ·gemmKernelAsm(SB), NOSPLIT, $0-41
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $ESHIFT, R8       // row stride in bytes
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), BX
	MOVQ kc+32(FP), CX

	VXOR Y0, Y0, Y0; VXOR Y1, Y1, Y1; VXOR Y2, Y2, Y2; VXOR Y3, Y3, Y3
	VXOR Y8, Y8, Y8; VXOR Y9, Y9, Y9; VXOR Y10, Y10, Y10; VXOR Y11, Y11, Y11

	MOVQ CX, DX
	SHRQ $1, DX
	JZ   tail

loop2:
	KSTEP4(0, 0, Y4, Y5, Y0, Y1, Y2, Y3)
	KSTEP4(32, 4, Y6, Y7, Y8, Y9, Y10, Y11)
	ADDQ $(8*ESZ), SI
	ADDQ $64, BX
	DECQ DX
	JNZ  loop2

tail:
	TESTQ $1, CX
	JZ    reduce
	KSTEP4(0, 0, Y4, Y5, Y0, Y1, Y2, Y3)

reduce:
	VADD Y8, Y0, Y0
	VADD Y9, Y1, Y1
	VADD Y10, Y2, Y2
	VADD Y11, Y3, Y3

	MOVBLZX add+40(FP), AX
	TESTB   AL, AL
	JZ      store

	VADD  (DI), Y0, Y0
	VMOVU Y0, (DI)
	ADDQ  R8, DI
	VADD  (DI), Y1, Y1
	VMOVU Y1, (DI)
	ADDQ  R8, DI
	VADD  (DI), Y2, Y2
	VMOVU Y2, (DI)
	ADDQ  R8, DI
	VADD  (DI), Y3, Y3
	VMOVU Y3, (DI)
	VZEROUPPER
	RET

store:
	VMOVU Y0, (DI)
	ADDQ  R8, DI
	VMOVU Y1, (DI)
	ADDQ  R8, DI
	VMOVU Y2, (DI)
	ADDQ  R8, DI
	VMOVU Y3, (DI)
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// AVX-512

// KSTEP8: the eight broadcast-FMAs of one k step of the 8-row tile
// against the B vector bv, from A-panel element a on; the broadcasts
// alternate between Z18 and Z19.
#define KSTEP8(a, bv, c0, c1, c2, c3, c4, c5, c6, c7) \
	BFMA(a, Z18, bv, c0); \
	BFMA(a+1, Z19, bv, c1); \
	BFMA(a+2, Z18, bv, c2); \
	BFMA(a+3, Z19, bv, c3); \
	BFMA(a+4, Z18, bv, c4); \
	BFMA(a+5, Z19, bv, c5); \
	BFMA(a+6, Z18, bv, c6); \
	BFMA(a+7, Z19, bv, c7)

// MADD: C row (DI) += acc, loading and storing the K1 lanes only.
#define MADD(acc) \
	VMOVU.Z (DI), K1, Z20; \
	VADD    Z20, acc, acc; \
	VMOVU   acc, K1, (DI)

// NEXTROW: done after mr rows (R9 counts them down), else step DI on.
#define NEXTROW \
	DECQ R9; \
	JZ   done; \
	ADDQ R8, DI

// func gemmKernelAsm512(c *Elem, ldc int, a, b *Elem, kc int, add bool, mr, nr int)
//
// 8-row × one-ZMM AVX-512 micro-kernel (8×8 f64, 8×16 f32). The packed
// A panel holds 8 row elements per k, the packed B panel one ZMM of
// columns per k. Eight ZMM accumulators hold the output rows, Z8–Z15
// the odd-k set. Per k: one B load, eight broadcasts of A, eight FMAs.
//
// Ragged edges are handled in-kernel: K1 = (1<<nr)-1 masks every C
// load/store to the valid columns (packing zero-padded the operands,
// so lanes past nr compute garbage that is never written), and the
// store walk stops after mr rows.
TEXT ·gemmKernelAsm512(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $ESHIFT, R8       // row stride in bytes
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), BX
	MOVQ kc+32(FP), CX

	VPXORQ Z0, Z0, Z0; VPXORQ Z1, Z1, Z1; VPXORQ Z2, Z2, Z2; VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4; VPXORQ Z5, Z5, Z5; VPXORQ Z6, Z6, Z6; VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8; VPXORQ Z9, Z9, Z9; VPXORQ Z10, Z10, Z10; VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12; VPXORQ Z13, Z13, Z13; VPXORQ Z14, Z14, Z14; VPXORQ Z15, Z15, Z15

	MOVQ CX, DX
	SHRQ $1, DX
	JZ   tail

loop2:
	VMOVU (BX), Z16
	VMOVU 64(BX), Z17
	KSTEP8(0, Z16, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	KSTEP8(8, Z17, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	ADDQ $(16*ESZ), SI
	ADDQ $128, BX
	DECQ DX
	JNZ  loop2

tail:
	TESTQ $1, CX
	JZ    reduce
	VMOVU (BX), Z16
	KSTEP8(0, Z16, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)

reduce:
	VADD Z8, Z0, Z0
	VADD Z9, Z1, Z1
	VADD Z10, Z2, Z2
	VADD Z11, Z3, Z3
	VADD Z12, Z4, Z4
	VADD Z13, Z5, Z5
	VADD Z14, Z6, Z6
	VADD Z15, Z7, Z7

	// K1 = (1<<nr)-1: the valid output columns (nr ≤ 8 f64, ≤ 16 f32).
	MOVQ  nr+56(FP), CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1

	MOVQ    mr+48(FP), R9
	MOVBLZX add+40(FP), AX
	TESTB   AL, AL
	JZ      store

	MADD(Z0); NEXTROW
	MADD(Z1); NEXTROW
	MADD(Z2); NEXTROW
	MADD(Z3); NEXTROW
	MADD(Z4); NEXTROW
	MADD(Z5); NEXTROW
	MADD(Z6); NEXTROW
	MADD(Z7)
	JMP done

store:
	VMOVU Z0, K1, (DI); NEXTROW
	VMOVU Z1, K1, (DI); NEXTROW
	VMOVU Z2, K1, (DI); NEXTROW
	VMOVU Z3, K1, (DI); NEXTROW
	VMOVU Z4, K1, (DI); NEXTROW
	VMOVU Z5, K1, (DI); NEXTROW
	VMOVU Z6, K1, (DI); NEXTROW
	VMOVU Z7, K1, (DI)

done:
	VZEROUPPER
	RET
