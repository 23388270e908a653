// Package tensor implements the dense numerical arrays used by the
// neural-network stack. Tensors are row-major, contiguous buffers of
// Elem values with an explicit shape. Elem is float64 by default and
// float32 under the `f32` build tag (see dtype64.go/dtype32.go): the
// storage and every compute kernel in this package run at the compiled
// width, while the scalar-facing API (At/Set/Full/Scale/…) and every
// reduction that sums many elements (Sum, Mean, Norm2, Dot) stay
// float64, so accumulation error does not scale with tensor volume.
// The package provides the element-wise and linear-algebra kernels that
// the layers in internal/nn are built from; heavy kernels (MatMul) are
// parallelised across CPU cores.
//
// Wire frames (serialize.go) carry a leading dtype byte, so a float32
// build ships 4-byte elements natively and either build decodes the
// other's frames (and the legacy pre-dtype float64 framing) with
// per-element conversion. Tests select dtype-appropriate tolerances
// with Tol(f64, f32).
//
// # Kernel architecture
//
// Matrix multiplication — the hot path under every layer — is a packed,
// register-blocked GEMM (gemm.go), dispatched per call in this order:
//
//  1. small products are not packed (packing two operands costs more
//     than it saves): the column-tiled Go loops, or on the AVX-512 tier
//     kernels bitwise equal to them (matmul.go);
//  2. skinny products on the AVX-512 tier (a handful of rows against a
//     large operand) take the skinny kernels (gemm_skinny.go), which
//     read the large operand in place instead of packing it;
//  3. everything else is packed: A and B blocks are copied once per
//     cache block into pool-backed MR-row / NR-column panels whose
//     layout matches the micro-kernel's streaming order exactly, with
//     the MatMulT1/T2 transposes absorbed by the packing reads. The conv
//     layers build their im2col matrices as ordinary tensors and take
//     the same dispatch as every other product. One GEMM call
//     additionally fans its macro loops
//     out across the worker pool: tasks split on packed-panel
//     boundaries and pack the shared B panels cooperatively, so the
//     result stays bitwise identical at every GOMAXPROCS.
//
// The micro-kernel — an MR×NR register tile over the packed panels —
// is picked per process by a runtime CPUID+XGETBV probe
// (gemm_cpu_amd64.go), overridable with MDGAN_GEMM_KERNEL and at
// runtime via ForceGemmKernel:
//
//	tier      f64 tile  f32 tile  selected when
//	generic   4×4       4×8       always available (pure Go; the only
//	                              tier under the `noasm` build tag)
//	avx2      4×4       4×8       AVX2+FMA assembly (gemm_amd64_*.s)
//	avx512    8×8       8×16      AVX-512 F/DQ/BW/VL assembly
//	                              (gemm_amd64_*_avx512.s) with ZMM
//	                              state OS-enabled
//
// gemm.go's file comment specifies the packing layout, the micro-kernel
// contract, the parallel split (panel-aligned, cooperatively packed
// tasks) and the recipe for adding a new architecture's kernel.
//
// Element-wise work is plain Go loops, with exceptions that run AVX-512
// kernels on the avx512 tier (elem.go; elem_amd64.h instantiated per
// dtype). TanhInto, the image generators' output activation, is within
// 2 ulp of math.Tanh and exact in sign, range and NaN (float32 computed
// in float32). AdamUpdate, Gate, GatherStride2 and AddStride2 are
// bitwise equal to their Go loops, and so are the Dense bias passes,
// AddRowVecInPlace and SumRowsAdd (ops.go; matmul_amd64.h). Every other
// tier keeps the Go loops.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major, contiguous array of Elem values.
// The zero value is not usable; construct tensors with New, FromSlice or
// the arithmetic helpers.
type Tensor struct {
	shape []int
	Data  []Elem
}

// New allocates a zero-filled tensor with the given shape. All
// dimensions must be positive.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), Data: make([]Elem, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is NOT
// copied; the tensor aliases it. len(data) must equal the shape volume.
func FromSlice(data []Elem, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (volume %d)", len(data), append([]int(nil), shape...), n))
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: data}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	e := Elem(v)
	for i := range t.Data {
		t.Data[i] = e
	}
	return t
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// Format a copy so the (cold) panic path does not force the
			// caller's variadic shape onto the heap.
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor shape. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i, d := range t.shape {
		if u.shape[i] != d {
			return false
		}
	}
	return true
}

// Reshape returns a tensor sharing t's data with a new shape of the same
// volume.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", len(t.Data), append([]int(nil), shape...)))
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: t.Data}
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies u's data into t. Shapes must match in volume.
func (t *Tensor) CopyFrom(u *Tensor) {
	if len(t.Data) != len(u.Data) {
		panic("tensor: CopyFrom volume mismatch")
	}
	copy(t.Data, u.Data)
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return float64(t.Data[t.offset(idx)]) }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = Elem(v) }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	e := Elem(v)
	for i := range t.Data {
		t.Data[i] = e
	}
}

// SliceRows returns rows [from, to) of the leading dimension as a view
// sharing t's data.
func (t *Tensor) SliceRows(from, to int) *Tensor {
	if len(t.shape) < 1 {
		panic("tensor: SliceRows on scalar")
	}
	if from < 0 || to > t.shape[0] || from >= to {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of range for dim %d", from, to, t.shape[0]))
	}
	rowVol := len(t.Data) / t.shape[0]
	shape := append([]int{to - from}, t.shape[1:]...)
	return &Tensor{shape: shape, Data: t.Data[from*rowVol : to*rowVol]}
}

// Gather returns a new tensor whose leading-dimension rows are
// t[idx[0]], t[idx[1]], ... in order.
func (t *Tensor) Gather(idx []int) *Tensor {
	rowVol := len(t.Data) / t.shape[0]
	shape := append([]int{len(idx)}, t.shape[1:]...)
	out := New(shape...)
	for i, j := range idx {
		if j < 0 || j >= t.shape[0] {
			panic(fmt.Sprintf("tensor: Gather index %d out of range", j))
		}
		copy(out.Data[i*rowVol:(i+1)*rowVol], t.Data[j*rowVol:(j+1)*rowVol])
	}
	return out
}

// Equal reports whether t and u have the same shape and element-wise
// equal data within tolerance tol.
func (t *Tensor) Equal(u *Tensor, tol float64) bool {
	if !t.SameShape(u) {
		return false
	}
	for i, v := range t.Data {
		if math.Abs(float64(v)-float64(u.Data[i])) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description (shape plus a few leading
// values), suitable for debugging.
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.Data[:n])
}
