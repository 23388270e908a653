package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mdgan/internal/tensor"
)

// Property-based tests on the algebraic structure of the layers —
// complements the finite-difference gradient checks with invariants
// that must hold for any input.

// Property: a Dense layer is affine — f(x+y) − f(y) = f(x) − f(0).
func TestDenseAffineProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in, out, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(4)
		d := NewDense(in, out, rng)
		x := randInput(rng, n, in)
		y := randInput(rng, n, in)
		zero := tensor.New(n, in)
		// Forward outputs are layer-owned buffers: clone the first of
		// each pair before the second overwrites it.
		lhs := tensor.Sub(d.Forward(tensor.Add(x, y), false).Clone(), d.Forward(y, false))
		rhs := tensor.Sub(d.Forward(x, false).Clone(), d.Forward(zero, false))
		return lhs.Equal(rhs, tensor.Tol(1e-9, 1e-4))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LeakyReLU is positively homogeneous — f(a·x) = a·f(x) for
// a > 0.
func TestLeakyReLUHomogeneityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := 0.1 + rng.Float64()*5
		l := NewLeakyReLU(0.2)
		x := randInput(rng, 2, 7)
		lhs := l.Forward(x.Scale(a), false).Clone() // layer-owned buffer
		rhs := l.Forward(x, false).Scale(a)
		return lhs.Equal(rhs, tensor.Tol(1e-9, 1e-5))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax is invariant to a constant shift of every logit in
// a row.
func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 100 {
			shift = 3
		}
		rng := rand.New(rand.NewSource(seed))
		x := randInput(rng, 3, 5)
		shifted := tensor.New(x.Shape()...)
		tensor.ApplyInto(shifted, x, func(v float64) float64 { return v + shift })
		return Softmax(x).Equal(Softmax(shifted), tensor.Tol(1e-9, 1e-5))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: sigmoid(−s) = 1 − sigmoid(s), so BCE(s, 1) = BCE(−s, 0).
func TestBCESymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randInput(rng, 6, 1)
		neg := x.Scale(-1)
		l1, g1 := BCEWithLogits(x, 1)
		l0, g0 := BCEWithLogits(neg, 0)
		if math.Abs(l1-l0) > tensor.Tol(1e-9, 1e-5) {
			return false
		}
		for i := range g1.Data {
			if math.Abs(float64(g1.Data[i])+float64(g0.Data[i])) > tensor.Tol(1e-9, 1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Conv2D with a 1×1 kernel, stride 1, no padding is exactly a
// per-pixel Dense layer over channels.
func TestConv1x1EqualsDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inC, outC, hw := 1+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(4)
		conv := NewConv2D(inC, hw, hw, outC, 1, 1, 0, rng)
		x := randInput(rng, 2, inC, hw, hw)
		y := conv.Forward(x, false)
		// Reference: y[n,oc,p] = Σ_ic W[oc,ic]·x[n,ic,p] + b[oc].
		for n := 0; n < 2; n++ {
			for oc := 0; oc < outC; oc++ {
				for p := 0; p < hw*hw; p++ {
					want := conv.B.W.Data[oc]
					for ic := 0; ic < inC; ic++ {
						want += conv.W.W.Data[oc*inC+ic] * x.Data[(n*inC+ic)*hw*hw+p]
					}
					got := y.Data[(n*outC+oc)*hw*hw+p]
					if math.Abs(float64(got)-float64(want)) > tensor.Tol(1e-9, 1e-5) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: ConvTranspose2D is the exact adjoint of Conv2D with shared
// geometry: ⟨conv(x), y⟩ = ⟨x, convT(y)⟩ when they share weights and
// zero bias.
func TestConvTransposeAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// conv: (inC, 8, 8) → (outC, 4, 4) with k=4, s=2, p=1.
		inC, outC := 1+rng.Intn(2), 1+rng.Intn(2)
		conv := NewConv2D(inC, 8, 8, outC, 4, 2, 1, rng)
		convT := NewConvTranspose2D(outC, 4, 4, inC, 4, 2, 1, 0, rng)
		// Share weights: conv W is (outC, inC·k·k); convT W is
		// (outC, inC·k·k) too (its "in" is conv's out).
		convT.W.W.CopyFrom(conv.W.W.Reshape(convT.W.W.Shape()...))
		conv.B.W.Zero()
		convT.B.W.Zero()

		x := randInput(rng, 1, inC, 8, 8)
		y := randInput(rng, 1, outC, 4, 4)
		lhs := tensor.Dot(conv.Forward(x, false), y)
		rhs := tensor.Dot(x, convT.Forward(y, false))
		return math.Abs(lhs-rhs) < tensor.Tol(1e-9, 1e-4)*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: minibatch discrimination is permutation-equivariant — the
// similarity features of sample i do not depend on the order of the
// other samples.
func TestMinibatchDiscriminationPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewMinibatchDiscrimination(4, 3, 2, rng)
		n := 3 + rng.Intn(4)
		x := randInput(rng, n, 4)
		y := l.Forward(x, false).Clone()
		// Reverse the batch.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = n - 1 - i
		}
		yRev := l.Forward(x.Gather(idx), false)
		for i := 0; i < n; i++ {
			for j := 0; j < 7; j++ {
				if math.Abs(y.At(i, j)-yRev.At(n-1-i, j)) > tensor.Tol(1e-9, 1e-5) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
