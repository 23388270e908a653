//go:build amd64 && !noasm && !f32

#include "textflag.h"

// float64 instance of the AVX-512 kernels of matmul step 1 and the Dense
// bias passes: 8 lanes per ZMM, qword lane indices.

#define ESZ      8
#define ESHIFT   3
#define LANES    8
#define LSHIFT   3
#define VMOVU    VMOVUPD
#define VBCAST   VBROADCASTSD
#define VMUL     VMULPD
#define VADD     VADDPD
#define VPERMI2  VPERMI2PD
#define VPADD    VPADDQ
#define VPSUB    VPSUBQ
#define VPCMPU   VPCMPUQ
#define VPBCASTI VPBROADCASTQ
#define VPMOVZXB VPMOVZXBQ
#define VPMULL   VPMULLQ
#define VGATHER  VGATHERQPD

// Lane numbers 0…7, a byte each, that VPMOVZXBQ widens.
DATA laneIdx<>+0(SB)/8, $0x0706050403020100
GLOBL laneIdx<>(SB), RODATA|NOPTR, $8

#include "matmul_amd64.h"
