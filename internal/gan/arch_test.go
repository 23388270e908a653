package gan

import (
	"math/rand"
	"testing"

	"mdgan/internal/nn"
	"mdgan/internal/opt"
)

// TestPaperCNNSmoke runs one full discriminator step and one feedback
// computation through the paper-shaped CNN architectures — these are
// too heavy for routine training tests but must remain trainable.
func TestPaperCNNSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale CNNs are slow; skipped with -short")
	}
	for _, arch := range []Arch{PaperCNNMNIST(), PaperCNNCIFAR()} {
		t.Run(arch.Name, func(t *testing.T) {
			g := arch.NewGAN(1, nn.GenLossNonSaturating, 1)
			rng := rand.New(rand.NewSource(2))
			xg, lg := g.G.Generate(2, rng, true)
			xr := xg.Clone() // shape stand-in for real data
			optD := opt.NewAdam(opt.AdamConfig{LR: 1e-4})
			loss := DiscStep(g.D, g.LossConfig, optD, xr, lg, xg, lg)
			if loss <= 0 {
				t.Fatalf("disc loss %v", loss)
			}
			fn, _ := Feedback(g.D, g.LossConfig, xg, lg)
			if !fn.SameShape(xg) {
				t.Fatalf("feedback shape %v", fn.Shape())
			}
			// Backprop the feedback through the generator.
			g.G.ZeroGrads()
			g.G.Backward(fn)
			norms := 0.0
			for _, p := range g.G.Params() {
				norms += p.Grad.Norm2()
			}
			if norms == 0 {
				t.Fatal("no generator gradient")
			}
		})
	}
}

// TestPaperCNNParamCounts records this implementation's parameter
// counts for the paper-shaped CNNs. The paper's published counts
// (628,058/286,048 for MNIST; 628,110/100,203 for CIFAR10) are not
// reconstructible from its layer lists (strides and paddings are
// unstated, and a 6-conv 16→512 stack with 3×3 kernels alone exceeds
// 1.5M parameters); the counts below are the honest counts of the
// as-described layer lists, pinned here so they cannot drift silently.
func TestPaperCNNParamCounts(t *testing.T) {
	mnist := PaperCNNMNIST().NewGAN(1, nn.GenLossNonSaturating, 1)
	if w := mnist.G.NumParams(); w != 736705 {
		t.Fatalf("MNIST CNN G params = %d", w)
	}
	if th := mnist.D.NumParams(); th != 2099683 {
		t.Fatalf("MNIST CNN D params = %d", th)
	}
	cifar := PaperCNNCIFAR().NewGAN(1, nn.GenLossNonSaturating, 1)
	if w := cifar.G.NumParams(); w != 2932035 {
		t.Fatalf("CIFAR CNN G params = %d", w)
	}
	if th := cifar.D.NumParams(); th != 2099971 {
		t.Fatalf("CIFAR CNN D params = %d", th)
	}
}

// TestFacesGeneratorMatchesPaperFC verifies the CelebA generator keeps
// the paper's 16,384-neuron fully-connected layer.
func TestFacesGeneratorMatchesPaperFC(t *testing.T) {
	g := FacesCNN().NewGAN(1, nn.GenLossNonSaturating, 0)
	first := g.G.Net.Layers[0].(*nn.Dense)
	if first.Out != 16384 {
		t.Fatalf("faces G first FC = %d neurons, paper says 16384", first.Out)
	}
}
