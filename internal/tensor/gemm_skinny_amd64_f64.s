//go:build amd64 && !noasm && !f32

#include "textflag.h"

// float64 instance of the skinny-M AVX-512 kernels: 8 lanes per ZMM, so
// a 16-column strip and an 8-element dot-product step.

#define ESZ    8
#define ESHIFT 3
#define LANES  8
#define LSHIFT 3
#define VMOVU  VMOVUPD
#define VBCAST VBROADCASTSD
#define VFMA   VFMADD231PD
#define VADD   VADDPD
#define VSHUFQ VSHUFF64X2

// Z0, Z1 hold four partial sums each of one C row's two columns; leave
// the two totals in the low lanes of X0.
#define DFOLD \
	VHADDPD      Y1, Y0, Y0; \
	VEXTRACTF128 $1, Y0, X1; \
	VADDPD       X1, X0, X0

#include "gemm_skinny_amd64.h"
