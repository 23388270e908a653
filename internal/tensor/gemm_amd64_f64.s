//go:build amd64 && !noasm && !f32

#include "textflag.h"

// float64 instance of the packed GEMM micro-kernels: 4 lanes per YMM,
// 8 per ZMM, so a 4×4 AVX2 tile and an 8×8 AVX-512 tile.

#define ESZ    8
#define ESHIFT 3
#define VMOVU  VMOVUPD
#define VBCAST VBROADCASTSD
#define VFMA   VFMADD231PD
#define VADD   VADDPD
#define VXOR   VXORPD

#include "gemm_amd64.h"
