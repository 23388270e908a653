package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mdgan/internal/tensor"
)

// rectifierSpecials are the inputs where a sign test can go wrong: both
// zeros, the smallest and largest denormals of the compiled dtype, ±1,
// the largest finite values, the infinities and NaN.
func rectifierSpecials() []tensor.Elem {
	denormMin, denormMax := math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff)
	maxFinite := math.MaxFloat64
	if tensor.ElemBytes == 4 {
		denormMin, denormMax = math.SmallestNonzeroFloat32, float64(math.Float32frombits(0x007fffff))
		maxFinite = math.MaxFloat32
	}
	var xs []tensor.Elem
	for _, v := range []float64{0, denormMin, denormMax, 1, maxFinite, math.Inf(1)} {
		xs = append(xs, tensor.Elem(v), -tensor.Elem(v))
	}
	return append(xs, tensor.Elem(math.NaN()))
}

// sameElem reports whether a and b are the same Elem bit for bit (any
// two NaNs count as the same).
func sameElem(a, b tensor.Elem) bool {
	if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
		return math.IsNaN(float64(a)) && math.IsNaN(float64(b))
	}
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// TestRectifierMatchesBranch pins LeakyReLU's branch-free forward and
// backward to the v > 0 branch they replace, bit for bit, for plain ReLU
// and the discriminators' slope: the forward on the special set and on
// random normals, the backward on every pair of a non-NaN input and a
// special or random gradient. (At a NaN input the backward is not
// pinned: the branch scaled the gradient by alpha, the select may not.)
func TestRectifierMatchesBranch(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	xs := rectifierSpecials()
	for i := 0; i < 64; i++ {
		xs = append(xs, tensor.Elem(rng.NormFloat64()))
	}
	for _, alpha := range []float64{0, 0.2} {
		t.Run(fmt.Sprintf("alpha=%v", alpha), func(t *testing.T) {
			a := tensor.Elem(alpha)
			l := NewLeakyReLU(alpha)
			x := tensor.FromSlice(append([]tensor.Elem(nil), xs...), len(xs))
			y := l.Forward(x, true)
			for i, v := range xs {
				want := a * v
				if v > 0 {
					want = v
				}
				if !sameElem(y.Data[i], want) {
					t.Fatalf("forward(%v) = %v, branch gives %v", v, y.Data[i], want)
				}
			}
			for _, g := range xs {
				grad := tensor.Full(float64(g), len(xs))
				dx := l.Backward(grad)
				for i, v := range xs {
					if math.IsNaN(float64(v)) {
						continue
					}
					want := a * grad.Data[i]
					if v > 0 {
						want = grad.Data[i]
					}
					if !sameElem(dx.Data[i], want) {
						t.Fatalf("backward at x=%v, g=%v: %v, branch gives %v", v, grad.Data[i], dx.Data[i], want)
					}
				}
			}
		})
	}
}

// BenchmarkRectifier times LeakyReLU's forward and backward over a
// served generator's hidden layer (batch 64 × 128) and a ScaledCNN
// conv activation (10 × 8 × 16 × 16) of normals, whose signs a branch
// cannot predict, reporting ns per element.
func BenchmarkRectifier(b *testing.B) {
	rng := rand.New(rand.NewSource(73))
	for _, shape := range [][]int{{64, 128}, {10, 8, 16, 16}} {
		x, g := tensor.New(shape...), tensor.New(shape...)
		for i := range x.Data {
			x.Data[i], g.Data[i] = tensor.Elem(rng.NormFloat64()), tensor.Elem(rng.NormFloat64())
		}
		dims := strings.Trim(strings.ReplaceAll(fmt.Sprint(shape), " ", "x"), "[]")
		for _, alpha := range []float64{0, 0.2} {
			l := NewLeakyReLU(alpha)
			l.Forward(x, true)
			for _, c := range []struct {
				name string
				run  func()
			}{
				{"forward", func() { l.Forward(x, false) }},
				{"backward", func() { l.Backward(g) }},
			} {
				b.Run(fmt.Sprintf("%s/%s/alpha=%v", dims, c.name, alpha), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						c.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(x.Data)), "ns/elem")
				})
			}
		}
	}
}
