package nn

// Buffer-ownership contract tests for the conv layers' retained
// workspaces — the layer-side extension of internal/core/contract_test.go.
// A training-mode Forward of Conv2D keeps its pooled im2col matrix col(x),
// and one of ConvTranspose2D its pooled channel-major input x̂, for the
// weight gradient of the Backward that follows; Backward returns it to
// the tensor pool. These tests pin the three ways that window can end
// other than by a Backward: a second training Forward, a Clone and an
// eval-mode Forward.

import (
	"math/rand"
	"strings"
	"testing"

	"mdgan/internal/tensor"
)

// workspaceCase is a conv layer with an accessor for the workspace its
// training Forward retains.
type workspaceCase struct {
	name string
	l    Layer
	in   []int
	held func(Layer) *tensor.Tensor
}

// workspaceCases builds one layer of each kind at n = 3, so no held
// workspace fills a power-of-two pool bucket exactly: a retained
// tensor's length is then below its capacity, and only tensor.Put
// resets it to the capacity.
func workspaceCases(rng *rand.Rand) []workspaceCase {
	return []workspaceCase{
		{"Conv2D", NewConv2D(3, 9, 9, 5, 3, 2, 1, rng), []int{3, 3, 9, 9},
			func(l Layer) *tensor.Tensor { return l.(*Conv2D).col }},
		{"ConvTranspose2D", NewConvTranspose2D(4, 5, 5, 3, 5, 2, 2, 1, rng), []int{3, 4, 5, 5},
			func(l Layer) *tensor.Tensor { return l.(*ConvTranspose2D).xhat }},
	}
}

// refuses reports whether fn panics with the layers' "Backward without
// a training-mode Forward" refusal.
func refuses(fn func()) (refused bool) {
	defer func() {
		msg, _ := recover().(string)
		refused = strings.HasSuffix(msg, "Backward without a training-mode Forward")
	}()
	fn()
	return false
}

// TestConvSecondForwardReleasesWorkspace: a training Forward that no
// Backward follows must hand its workspace back to the pool when the
// next Forward replaces it — either the pool gave the same tensor back
// to that Forward, or the tensor sits released (resliced to its
// capacity by tensor.Put) instead of leaking to the garbage collector.
func TestConvSecondForwardReleasesWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, tc := range workspaceCases(rng) {
		x := randInput(rng, tc.in...)
		tc.l.Forward(x, true)
		first := tc.held(tc.l)
		if first == nil || len(first.Data) == cap(first.Data) {
			t.Fatalf("%s: training Forward holds %v, want a pooled workspace below its capacity", tc.name, first)
		}
		tc.l.Forward(x, true)
		if tc.held(tc.l) != first && len(first.Data) != cap(first.Data) {
			t.Fatalf("%s: second training Forward leaked the first workspace instead of releasing it", tc.name)
		}
		tc.l.Backward(randInput(rng, tc.l.Forward(x, true).Shape()...))
		if tc.held(tc.l) != nil {
			t.Fatalf("%s: Backward kept its workspace", tc.name)
		}
	}
}

// TestConvCloneSharesNoWorkspace: a clone starts with no workspace, and
// its own training Forward and Backward neither read nor release the
// original's — both then produce the same gradients.
func TestConvCloneSharesNoWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, tc := range workspaceCases(rng) {
		x := randInput(rng, tc.in...)
		out := tc.l.Forward(x, true)
		grad := randInput(rng, out.Shape()...)
		cl := tc.l.Clone()
		if tc.held(cl) != nil {
			t.Fatalf("%s: Clone copied the workspace pointer", tc.name)
		}
		if !refuses(func() { cl.Backward(grad) }) {
			t.Fatalf("%s: a clone back-propagated through its original's workspace", tc.name)
		}
		cl.Forward(x, true)
		a, b := tc.held(tc.l), tc.held(cl)
		if a == b || &a.Data[0] == &b.Data[0] {
			t.Fatalf("%s: clone and original hold the same workspace", tc.name)
		}
		cl.Backward(grad)
		tc.l.Backward(grad)
		for i, p := range tc.l.Params() {
			sameElems(t, tc.name+" "+p.Name, cl.Params()[i].Grad.Data, p.Grad.Data)
		}
	}
}

// TestConvEvalForwardHoldsNothing: an eval-mode Forward releases its
// workspace at once, and the one a previous training Forward held, so
// a Backward after it has nothing to read and refuses to run.
func TestConvEvalForwardHoldsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, tc := range workspaceCases(rng) {
		x := randInput(rng, tc.in...)
		out := tc.l.Forward(x, false)
		if tc.held(tc.l) != nil {
			t.Fatalf("%s: eval-mode Forward holds a workspace", tc.name)
		}
		grad := randInput(rng, out.Shape()...)
		tc.l.Forward(x, true)
		tc.l.Forward(x, false)
		if tc.held(tc.l) != nil {
			t.Fatalf("%s: eval-mode Forward kept the training Forward's workspace", tc.name)
		}
		if !refuses(func() { tc.l.Backward(grad) }) {
			t.Fatalf("%s: Backward ran after an eval-mode Forward", tc.name)
		}
	}
}
