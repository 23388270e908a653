//go:build amd64 && !noasm && f32

#include "textflag.h"

// float32 instance of the skinny-M AVX-512 kernels: 16 lanes per ZMM, so
// a 32-column strip and a 16-element dot-product step.

#define ESZ    4
#define ESHIFT 2
#define LANES  16
#define LSHIFT 4
#define VMOVU  VMOVUPS
#define VBCAST VBROADCASTSS
#define VFMA   VFMADD231PS
#define VADD   VADDPS
#define VSHUFQ VSHUFF32X4

// Z0, Z1 hold eight partial sums each of one C row's two columns; leave
// the two totals in the low lanes of X0.
#define DFOLD \
	VHADDPS      Y1, Y0, Y0; \
	VEXTRACTF128 $1, Y0, X1; \
	VADDPS       X1, X0, X0; \
	VHADDPS      X0, X0, X0

#include "gemm_skinny_amd64.h"
