package nn

import (
	"math"
	"math/rand"
	"testing"

	"mdgan/internal/tensor"
)

// scalarLoss projects the network output onto a fixed random direction,
// giving a scalar objective whose analytic gradient is obtained by
// feeding the projection itself into Backward.
type scalarLoss struct {
	proj *tensor.Tensor
}

func newScalarLoss(outShape []int, rng *rand.Rand) *scalarLoss {
	p := tensor.New(outShape...)
	for i := range p.Data {
		p.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	return &scalarLoss{proj: p}
}

func (s *scalarLoss) value(out *tensor.Tensor) float64 { return tensor.Dot(out, s.proj) }

// skipGradcheckF32 skips finite-difference checks under the f32 build:
// with h = 1e-5 and float32 forward evaluations the quotient
// (f(w+h)−f(w−h))/2h carries O(ε₃₂·|f|/h) ≈ O(1) relative noise, so
// central differences cannot resolve the gradient. The f32 build's
// gradient coverage comes from the analytic-vs-reference equivalence
// tests (batched_equiv_test.go) and the cross-dtype training tests.
func skipGradcheckF32(t *testing.T) {
	t.Helper()
	if tensor.ElemBytes == 4 {
		t.Skip("finite-difference gradcheck needs float64 forward evaluations")
	}
}

// checkLayerGradients verifies analytic parameter AND input gradients of
// a layer against central finite differences. Input gradients are what
// MD-GAN workers ship to the server, so they get equal scrutiny.
func checkLayerGradients(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	skipGradcheckF32(t)
	rng := rand.New(rand.NewSource(99))
	out := l.Forward(x, true)
	loss := newScalarLoss(out.Shape(), rng)
	for _, p := range l.Params() {
		p.Grad.Zero()
	}
	dx := l.Backward(loss.proj.Clone())

	const h = 1e-5
	eval := func() float64 { return loss.value(l.Forward(x, true)) }

	// Parameter gradients.
	for _, p := range l.Params() {
		if p.Name != "" && (p.Name[len(p.Name)-5:] == "rmean" || p.Name[len(p.Name)-4:] == "rvar") {
			continue // running stats are state, not learnables
		}
		for _, i := range sampleIndices(p.W.Size(), 12, rng) {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			fp := eval()
			p.W.Data[i] = orig - h
			fm := eval()
			p.W.Data[i] = orig
			num := (fp - fm) / (2 * h)
			got := float64(p.Grad.Data[i])
			if relErr(num, got) > tol {
				t.Fatalf("param %s[%d]: analytic %g vs numeric %g", p.Name, i, got, num)
			}
		}
	}
	// Input gradients.
	for _, i := range sampleIndices(x.Size(), 12, rng) {
		orig := x.Data[i]
		x.Data[i] = orig + h
		fp := eval()
		x.Data[i] = orig - h
		fm := eval()
		x.Data[i] = orig
		num := (fp - fm) / (2 * h)
		got := float64(dx.Data[i])
		if relErr(num, got) > tol {
			t.Fatalf("input[%d]: analytic %g vs numeric %g", i, got, num)
		}
	}
}

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	s := math.Abs(a) + math.Abs(b)
	if s < 1e-7 {
		return d
	}
	return d / s
}

func sampleIndices(n, k int, rng *rand.Rand) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, k)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	return x
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checkLayerGradients(t, NewDense(7, 5, rng), randInput(rng, 4, 7), 1e-5)
}

func TestLeakyReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	checkLayerGradients(t, NewLeakyReLU(0.2), randInput(rng, 3, 9), 1e-5)
}

func TestSigmoidGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checkLayerGradients(t, &Sigmoid{}, randInput(rng, 3, 6), 1e-5)
}

func TestTanhGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	checkLayerGradients(t, NewTanh(), randInput(rng, 3, 6), 1e-5)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewConv2D(2, 6, 6, 3, 3, 1, 1, rng)
	checkLayerGradients(t, l, randInput(rng, 2, 2, 6, 6), 1e-4)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewConv2D(2, 8, 8, 4, 3, 2, 1, rng)
	checkLayerGradients(t, l, randInput(rng, 2, 2, 8, 8), 1e-4)
}

func TestConvTranspose2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewConvTranspose2D(3, 4, 4, 2, 4, 2, 1, 0, rng)
	checkLayerGradients(t, l, randInput(rng, 2, 3, 4, 4), 1e-4)
}

func TestConvTranspose2DOutputPadGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// 4 → (4−1)·2 − 4 + 5 + 1 = 8: the Keras 'same' k=5 s=2 geometry.
	l := NewConvTranspose2D(2, 4, 4, 2, 5, 2, 2, 1, rng)
	if _, oh, ow := l.OutShape(); oh != 8 || ow != 8 {
		t.Fatalf("out %dx%d, want 8x8", oh, ow)
	}
	checkLayerGradients(t, l, randInput(rng, 2, 2, 4, 4), 1e-4)
}

func TestMinibatchDiscriminationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := NewMinibatchDiscrimination(6, 3, 2, rng)
	checkLayerGradients(t, l, randInput(rng, 5, 6), 1e-4)
}

// TestSequentialMLPGradients checks a full MLP stack end to end,
// including the gradient delivered at the network input (the F_n path).
func TestSequentialMLPGradients(t *testing.T) {
	skipGradcheckF32(t)
	rng := rand.New(rand.NewSource(11))
	net := NewSequential(
		NewDense(8, 10, rng),
		NewLeakyReLU(0.2),
		NewDense(10, 6, rng),
		NewTanh(),
		NewDense(6, 1, rng),
	)
	x := randInput(rng, 4, 8)
	out := net.Forward(x, true)
	loss := newScalarLoss(out.Shape(), rng)
	net.ZeroGrads()
	dx := net.Backward(loss.proj.Clone())

	const h = 1e-5
	eval := func() float64 { return loss.value(net.Forward(x, true)) }
	for _, p := range net.Params() {
		for _, i := range sampleIndices(p.W.Size(), 8, rng) {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			fp := eval()
			p.W.Data[i] = orig - h
			fm := eval()
			p.W.Data[i] = orig
			if relErr((fp-fm)/(2*h), float64(p.Grad.Data[i])) > 1e-5 {
				t.Fatalf("param %s[%d] gradient mismatch", p.Name, i)
			}
		}
	}
	for _, i := range sampleIndices(x.Size(), 10, rng) {
		orig := x.Data[i]
		x.Data[i] = orig + h
		fp := eval()
		x.Data[i] = orig - h
		fm := eval()
		x.Data[i] = orig
		if relErr((fp-fm)/(2*h), float64(dx.Data[i])) > 1e-5 {
			t.Fatalf("input[%d] gradient mismatch", i)
		}
	}
}

func TestConvNetGradientsEndToEnd(t *testing.T) {
	skipGradcheckF32(t)
	rng := rand.New(rand.NewSource(12))
	net := NewSequential(
		NewConv2D(1, 8, 8, 4, 3, 2, 1, rng), // -> (4,4,4)
		NewLeakyReLU(0.2),
		NewFlatten(),
		NewDense(64, 1, rng),
	)
	x := randInput(rng, 2, 1, 8, 8)
	out := net.Forward(x, true)
	loss := newScalarLoss(out.Shape(), rng)
	net.ZeroGrads()
	dx := net.Backward(loss.proj.Clone())
	const h = 1e-5
	eval := func() float64 { return loss.value(net.Forward(x, true)) }
	for _, i := range sampleIndices(x.Size(), 10, rng) {
		orig := x.Data[i]
		x.Data[i] = orig + h
		fp := eval()
		x.Data[i] = orig - h
		fm := eval()
		x.Data[i] = orig
		if relErr((fp-fm)/(2*h), float64(dx.Data[i])) > 1e-4 {
			t.Fatalf("input[%d] gradient mismatch", i)
		}
	}
}
