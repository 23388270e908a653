//go:build f32

package tensor

// Elem is the element type of tensor storage and of every compute
// kernel in this package: float32 under the `f32` build tag. See
// dtype64.go for the default and for what stays float64 regardless.
type Elem = float32

const (
	// DTypeName names the compiled element type ("float64"/"float32").
	DTypeName = "float32"
	// ElemBytes is the wire and storage size of one element.
	ElemBytes = 4
	// NativeDType is the wire dtype byte AppendBinary emits.
	NativeDType = DTypeF32
)

// Tol selects a test tolerance by compiled dtype; under `-tags f32` the
// explicitly chosen float32 tolerance applies. See dtype64.go.
func Tol(f64, f32 float64) float64 { return f32 }
