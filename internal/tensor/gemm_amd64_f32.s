//go:build amd64 && !noasm && f32

#include "textflag.h"

// float32 instance of the packed GEMM micro-kernels: 8 lanes per YMM,
// 16 per ZMM, so a 4×8 AVX2 tile and an 8×16 AVX-512 tile.

#define ESZ    4
#define ESHIFT 2
#define VMOVU  VMOVUPS
#define VBCAST VBROADCASTSS
#define VFMA   VFMADD231PS
#define VADD   VADDPS
#define VXOR   VXORPS

#include "gemm_amd64.h"
