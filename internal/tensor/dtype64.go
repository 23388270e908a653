//go:build !f32

package tensor

// Elem is the element type of tensor storage and of every compute
// kernel in this package. The default build uses float64; building with
// `-tags f32` switches storage and compute to float32 (halving memory
// traffic through the bandwidth-bound kernels) while keeping the
// correctness-sensitive state — optimiser moments, loss/reduction
// accumulators — in float64.
type Elem = float64

const (
	// DTypeName names the compiled element type ("float64"/"float32").
	DTypeName = "float64"
	// ElemBytes is the wire and storage size of one element.
	ElemBytes = 8
	// NativeDType is the wire dtype byte AppendBinary emits.
	NativeDType = DTypeF64
)

// Tol selects a test tolerance by compiled dtype: f64 under the default
// build, f32 under `-tags f32`. Tests pass the float64-build tolerance
// they historically asserted plus an explicitly chosen float32
// counterpart (float32 tolerances do not follow from a uniform scale
// factor — they depend on the accumulation depth of the op under test).
func Tol(f64, f32 float64) float64 { return f64 }
