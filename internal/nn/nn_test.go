package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mdgan/internal/tensor"
)

func smallNet(rng *rand.Rand) *Sequential {
	return NewSequential(
		NewDense(4, 6, rng),
		NewLeakyReLU(0.2),
		NewDense(6, 3, rng),
	)
}

func TestParamVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := smallNet(rng)
	b := smallNet(rng)
	v := ParamVector(a.Params())
	if len(v) != a.NumParams() {
		t.Fatalf("vector length %d != NumParams %d", len(v), a.NumParams())
	}
	if err := SetParamVector(b.Params(), v); err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 3, 4)
	ya := a.Forward(x, false)
	yb := b.Forward(x, false)
	if !ya.Equal(yb, 0) {
		t.Fatal("networks with identical parameters must agree")
	}
}

func TestSetParamVectorRejectsWrongLength(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := smallNet(rng)
	if err := SetParamVector(n.Params(), make([]float64, 3)); err == nil {
		t.Fatal("expected error for short vector")
	}
	if err := SetParamVector(n.Params(), make([]float64, n.NumParams()+1)); err == nil {
		t.Fatal("expected error for long vector")
	}

	// A G+D couple as FL-GAN averages it: generator, trunk and two heads
	// in one list. FedAvg hands back a vector from the network, so any
	// length but the total is an error — never a panic — and leaves every
	// parameter as it was.
	head := NewSequential(NewDense(3, 2, rng))
	var ps []*Param
	for _, net := range []*Sequential{smallNet(rng), smallNet(rng), NewSequential(NewDense(3, 1, rng)), head} {
		ps = append(ps, net.Params()...)
	}
	before := ParamVector(ps)
	for name, l := range map[string]int{
		"short":             3,
		"long":              len(before) + 1,
		"short by one head": len(before) - head.NumParams(),
	} {
		if err := SetParamVector(ps, make([]float64, l)); err == nil {
			t.Fatalf("%s vector (%d of %d): expected error", name, l, len(before))
		}
		for i, v := range ParamVector(ps) {
			if v != before[i] {
				t.Fatalf("%s vector: rejected load changed parameter element %d", name, i)
			}
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := smallNet(rng)
	b := a.Clone()
	x := randInput(rng, 2, 4)
	if !a.Forward(x, false).Equal(b.Forward(x, false), 0) {
		t.Fatal("clone must start identical")
	}
	// Mutate the clone; original must not change.
	b.Params()[0].W.Data[0] += 1
	if a.Forward(x, false).Equal(b.Forward(x, false), 0) {
		t.Fatal("clone must not share parameter storage")
	}
}

func TestParamSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := smallNet(rng)
	b := smallNet(rng)
	buf := AppendParams(nil, a.Params(), tensor.NativeDType)
	if n := EncodedParamSize(a.Params(), tensor.NativeDType); int64(len(buf)) != n {
		t.Fatalf("wrote %d bytes, EncodedParamSize says %d", len(buf), n)
	}
	if _, err := ReadParams(bytes.NewReader(buf), b.Params()); err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 2, 4)
	if !a.Forward(x, false).Equal(b.Forward(x, false), 0) {
		t.Fatal("serialisation round trip must preserve behaviour")
	}
}

func TestReadParamsRejectsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := smallNet(rng)
	other := NewSequential(NewDense(9, 9, rng))
	buf := AppendParams(nil, other.Params(), tensor.NativeDType)
	if _, err := ReadParams(bytes.NewReader(buf), a.Params()); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestZeroGradsAndGradNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := smallNet(rng)
	x := randInput(rng, 3, 4)
	out := n.Forward(x, true)
	n.Backward(tensor.Full(1, out.Shape()...))
	gradNorms := func() (sum float64) {
		for _, p := range n.Params() {
			sum += p.Grad.Norm2()
		}
		return sum
	}
	if gradNorms() == 0 {
		t.Fatal("expected non-zero gradients after backward")
	}
	n.ZeroGrads()
	if gradNorms() != 0 {
		t.Fatal("ZeroGrads must clear all gradients")
	}
}

func TestGradientAccumulationIsAdditive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := smallNet(rng)
	x := randInput(rng, 3, 4)
	g := tensor.Full(1, 3, 3)

	n.ZeroGrads()
	n.Forward(x, true)
	n.Backward(g)
	var once []*tensor.Tensor
	for _, p := range n.Params() {
		once = append(once, p.Grad.Clone())
	}

	n.ZeroGrads()
	n.Forward(x, true)
	n.Backward(g)
	n.Forward(x, true)
	n.Backward(g)

	for i, p := range n.Params() {
		for j, v := range p.Grad.Data {
			want, twice := 2*float64(once[i].Data[j]), float64(v)
			// Mixed absolute/relative bound: near-zero gradients see f32
			// cancellation noise that a pure relative error over-penalises.
			if d := math.Abs(want - twice); d > tensor.Tol(1e-9, 1e-5)*(1+math.Abs(want)) {
				t.Fatalf("gradient accumulation not additive at param %d element %d: %g vs %g", i, j, want, twice)
			}
		}
	}
}

func TestMinibatchDiscriminationShapesAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := NewMinibatchDiscrimination(5, 4, 3, rng)
	x := randInput(rng, 6, 5)
	y := l.Forward(x, true)
	if y.Dim(0) != 6 || y.Dim(1) != 9 {
		t.Fatalf("output shape %v, want (6, 9)", y.Shape())
	}
	// Pass-through part intact.
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			if y.At(i, j) != x.At(i, j) {
				t.Fatal("pass-through features altered")
			}
		}
	}
	// Similarity features in (0, N−1].
	for i := 0; i < 6; i++ {
		for j := 5; j < 9; j++ {
			v := y.At(i, j)
			if v <= 0 || v > 5 {
				t.Fatalf("similarity feature %v out of range", v)
			}
		}
	}
}

func TestConvShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewConv2D(3, 32, 32, 16, 3, 2, 1, rng)
	oc, oh, ow := c.OutShape()
	if oc != 16 || oh != 16 || ow != 16 {
		t.Fatalf("conv out shape (%d,%d,%d), want (16,16,16)", oc, oh, ow)
	}
	ct := NewConvTranspose2D(16, 16, 16, 3, 4, 2, 1, 0, rng)
	tc, th, tw := ct.OutShape()
	if tc != 3 || th != 32 || tw != 32 {
		t.Fatalf("convT out shape (%d,%d,%d), want (3,32,32)", tc, th, tw)
	}
	x := randInput(rng, 2, 3, 32, 32)
	y := c.Forward(x, true)
	if y.Dim(1) != 16 || y.Dim(2) != 16 || y.Dim(3) != 16 {
		t.Fatalf("forward shape %v", y.Shape())
	}
	z := ct.Forward(y, true)
	if z.Dim(1) != 3 || z.Dim(2) != 32 || z.Dim(3) != 32 {
		t.Fatalf("transpose forward shape %v", z.Shape())
	}
}
