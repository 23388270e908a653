//go:build amd64 && !noasm && f32

#include "textflag.h"

// float32 instance of the AVX-512 kernels of matmul step 1 and the Dense
// bias passes: 16 lanes per ZMM, dword lane indices.

#define ESZ      4
#define ESHIFT   2
#define LANES    16
#define LSHIFT   4
#define VMOVU    VMOVUPS
#define VBCAST   VBROADCASTSS
#define VMUL     VMULPS
#define VADD     VADDPS
#define VPERMI2  VPERMI2PS
#define VPADD    VPADDD
#define VPSUB    VPSUBD
#define VPCMPU   VPCMPUD
#define VPBCASTI VPBROADCASTD
#define VPMOVZXB VPMOVZXBD
#define VPMULL   VPMULLD
#define VGATHER  VGATHERDPS

// Lane numbers 0…15, a byte each, that VPMOVZXBD widens.
DATA laneIdx<>+0(SB)/8, $0x0706050403020100
DATA laneIdx<>+8(SB)/8, $0x0f0e0d0c0b0a0908
GLOBL laneIdx<>(SB), RODATA|NOPTR, $16

#include "matmul_amd64.h"
