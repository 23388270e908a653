package nn

import (
	"math"
	"math/rand"
	"testing"

	"mdgan/internal/tensor"
)

// The want-set rule of the package doc, layer by layer: whatever a
// restricted backward pass computes is bitwise what Backward computes,
// what it was not asked for is neither computed nor touched, and a
// skipped input gradient is nil rather than the previous call's buffer.
// The file runs at whichever Elem the build compiles (verify.sh runs
// both).

const gradSentinel = tensor.Elem(-12345.5)

// fillGrads sets every parameter gradient of the layers to v.
func fillGrads(v tensor.Elem, params []*Param) {
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = v
		}
	}
}

func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

func sameGrads(t *testing.T, what string, got, want []*Param) {
	t.Helper()
	for i := range want {
		sameBits(t, what+" "+want[i].Name+".Grad", got[i].Grad, want[i].Grad)
	}
}

func TestBackwardWantMatchesBackwardPerLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, tc := range []struct {
		name  string
		layer Layer
		in    []int
	}{
		{"Dense", NewDense(37, 21, rng), []int{10, 37}},
		{"Dense-rank4-input", NewDense(2*3*3, 5, rng), []int{10, 2, 3, 3}},
		{"Conv2D", NewConv2D(3, 9, 9, 5, 3, 2, 1, rng), []int{10, 3, 9, 9}},
		{"ConvTranspose2D", NewConvTranspose2D(4, 5, 5, 3, 5, 2, 2, 1, rng), []int{10, 4, 5, 5}},
		{"MinibatchDiscrimination", NewMinibatchDiscrimination(12, 4, 3, rng), []int{10, 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := randInput(rng, tc.in...)
			full := tc.layer.Clone()
			out := full.Forward(x, true)
			grad := randInput(rng, out.Shape()...)
			fillGrads(0.25, full.Params()) // a non-zero base: gradients accumulate
			wantDx := full.Backward(grad).Clone()

			// Input gradient alone: same bits, no parameter gradient
			// accumulated into or cleared.
			l := tc.layer.Clone()
			l.Forward(x, true)
			fillGrads(gradSentinel, l.Params())
			dx := l.(wantBackwarder).BackwardWant(grad, WantInput)
			sameBits(t, "dx without WantParams", dx, wantDx)
			for _, p := range l.Params() {
				for i, v := range p.Grad.Data {
					if v != gradSentinel {
						t.Fatalf("%s.Grad[%d] = %v after a WantInput-only pass, sentinel %v", p.Name, i, v, gradSentinel)
					}
				}
			}

			// Parameter gradients alone: same bits, and nil for the input
			// gradient even though the layer still owns the buffer the
			// pass above returned.
			l.Forward(x, true)
			fillGrads(0.25, l.Params())
			if got := l.(wantBackwarder).BackwardWant(grad, WantParams); got != nil {
				t.Fatalf("BackwardWant(WantParams) returned %v, want nil", got.Shape())
			}
			sameGrads(t, "without WantInput", l.Params(), full.Params())

			// Written instead of accumulated: over a stale gradient, the
			// bits an accumulating pass leaves in a zeroed one.
			zeroed := tc.layer.Clone()
			zeroed.Forward(x, true)
			zeroed.Backward(grad)
			l.Forward(x, true)
			fillGrads(tensor.Elem(math.NaN()), l.Params())
			sameBits(t, "dx under WantWrite", l.(wantBackwarder).BackwardWant(grad, WantParams|WantInput|WantWrite), wantDx)
			sameGrads(t, "under WantWrite", l.Params(), zeroed.Params())

			// Neither: nothing computed, nothing touched.
			l.Forward(x, true)
			fillGrads(gradSentinel, l.Params())
			if got := l.(wantBackwarder).BackwardWant(grad, 0); got != nil {
				t.Fatalf("BackwardWant(0) returned %v, want nil", got.Shape())
			}
			for _, p := range l.Params() {
				for i, v := range p.Grad.Data {
					if v != gradSentinel {
						t.Fatalf("%s.Grad[%d] = %v after an empty pass", p.Name, i, v)
					}
				}
			}
		})
	}
}

// plainLayer hides every method but the Layer interface's, the way a
// decorator outside this package does: it has no BackwardWant.
type plainLayer struct {
	Layer
	backwards *int
}

func (p plainLayer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	*p.backwards++
	return p.Layer.Backward(grad)
}

func TestSequentialBackwardWant(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	build := func() *Sequential {
		r := rand.New(rand.NewSource(5))
		return NewSequential(
			NewFlatten(),
			NewLeakyReLU(0.2), // parameter-free, in front of the first parameter layer
			NewDense(12, 9, r),
			NewLeakyReLU(0.2),
			NewDense(9, 7, r),
			NewTanh(),
		)
	}
	x := randInput(rng, 10, 3, 2, 2)
	grad := randInput(rng, 10, 7)

	full := build()
	full.Forward(x, true)
	wantDx := full.Backward(grad).Clone()

	t.Run("params-only", func(t *testing.T) {
		net := build()
		net.Forward(x, true)
		if got := net.BackwardWant(grad, WantParams); got != nil {
			t.Fatalf("BackwardWant(WantParams) returned %v, want nil", got.Shape())
		}
		sameGrads(t, "params-only", net.Params(), full.Params())
		first, second := net.Layers[2].(*Dense), net.Layers[4].(*Dense)
		if first.dx != nil {
			t.Fatal("the first parameter layer formed an input gradient nobody reads")
		}
		if second.dx == nil {
			t.Fatal("a later parameter layer dropped the input gradient the layer below consumes")
		}
		if net.Layers[1].(*LeakyReLU).dx != nil {
			t.Fatal("a parameter-free layer in front of the first parameter layer ran")
		}
	})

	t.Run("input-only", func(t *testing.T) {
		net := build()
		net.Forward(x, true)
		fillGrads(gradSentinel, net.Params())
		sameBits(t, "input-only dx", net.BackwardWant(grad, WantInput), wantDx)
		for _, p := range net.Params() {
			if p.Grad.Data[0] != gradSentinel {
				t.Fatalf("%s.Grad touched by an input-only pass", p.Name)
			}
		}
	})

	t.Run("no-parameter-layer", func(t *testing.T) {
		net := NewSequential(NewFlatten(), NewTanh())
		net.Forward(x, true)
		if got := net.BackwardWant(randInput(rng, 10, 12), WantParams); got != nil {
			t.Fatalf("got %v, want nil", got.Shape())
		}
	})

	// A layer type without BackwardWant gets a full Backward wherever it
	// sits, the results around it are unchanged, and the pass still
	// answers nil when the input gradient was not asked for.
	t.Run("fallback", func(t *testing.T) {
		for _, want := range []Want{WantParams, WantInput, WantParams | WantInput} {
			net := build()
			calls := 0
			for i, l := range net.Layers {
				if _, ok := l.(*Dense); ok {
					net.Layers[i] = plainLayer{l, &calls}
				}
			}
			net.Forward(x, true)
			got := net.BackwardWant(grad, want)
			if calls != 2 {
				t.Fatalf("want %b: %d Backward calls on the two plain layers", want, calls)
			}
			if want&WantInput == 0 {
				if got != nil {
					t.Fatalf("want %b: got %v, want nil", want, got.Shape())
				}
			} else {
				sameBits(t, "fallback dx", got, wantDx)
			}
			sameGrads(t, "fallback", net.Params(), full.Params())
		}
	})

	// Under WantWrite a layer without BackwardWant cannot overwrite its
	// gradients, so the Sequential clears them before the layer
	// accumulates: stale values never reach the result, whichever kind
	// of layer holds them.
	t.Run("write", func(t *testing.T) {
		for _, plain := range []bool{false, true} {
			net := build()
			calls := 0
			for i, l := range net.Layers {
				if _, ok := l.(*Dense); ok && plain {
					net.Layers[i] = plainLayer{l, &calls}
				}
			}
			net.Forward(x, true)
			fillGrads(tensor.Elem(math.NaN()), net.Params())
			sameBits(t, "dx under WantWrite", net.BackwardWant(grad, WantParams|WantInput|WantWrite), wantDx)
			sameGrads(t, "under WantWrite", net.Params(), full.Params())
		}
	})
}

// RowWise is the licence to stack two batches into one: only layer
// types known to treat rows independently grant it.
func TestSequentialRowWise(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	calls := 0
	for _, tc := range []struct {
		name  string
		extra Layer
		want  bool
	}{
		{"dense-conv-activations", nil, true},
		{"MinibatchDiscrimination", NewMinibatchDiscrimination(4, 2, 2, rng), false},
		{"unknown-decorator", plainLayer{NewTanh(), &calls}, false},
	} {
		layers := []Layer{
			NewReshape(1, 4, 4), NewConv2D(1, 4, 4, 2, 3, 1, 1, rng), NewLeakyReLU(0.2),
			NewConvTranspose2D(2, 4, 4, 1, 3, 1, 1, 0, rng), &Sigmoid{},
			NewFlatten(), NewDense(16, 4, rng), NewTanh(),
		}
		if tc.extra != nil {
			layers = append(layers, tc.extra)
		}
		if got := NewSequential(layers...).RowWise(); got != tc.want {
			t.Errorf("%s: RowWise() = %v, want %v", tc.name, got, tc.want)
		}
	}
}
