package gan

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mdgan/internal/dataset"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/tensor"
)

// TestPaperMLPParamCountsExact pins the architecture to the numbers
// published in §V-A(b): G = 716,560 and D = 670,219 parameters.
func TestPaperMLPParamCountsExact(t *testing.T) {
	g := PaperMLP().NewGAN(1, nn.GenLossNonSaturating, 1)
	if n := g.G.NumParams(); n != 716560 {
		t.Fatalf("G params = %d, paper says 716560", n)
	}
	if n := g.D.NumParams(); n != 670219 {
		t.Fatalf("D params = %d, paper says 670219", n)
	}
	// The conditioning embedding (10 × 100) rides outside the count,
	// exactly as the paper's report does.
	if n := g.G.Embed.W.Size(); n != 1000 {
		t.Fatalf("embedding params = %d", n)
	}
}

// everyArch returns one of each Arch constructor, the CNN both
// conditional and not.
func everyArch() []Arch {
	return []Arch{PaperMLP(), ScaledMLP(64), PaperCNNMNIST(), PaperCNNCIFAR(), ScaledCNN(1, 28, 10), ScaledCNN(3, 32, 10), FacesCNN(), ScaledCNN(3, 32, 0), RingMLP()}
}

func TestArchGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, a := range everyArch() {
		t.Run(a.Name, func(t *testing.T) {
			g := a.NewGAN(2, nn.GenLossNonSaturating, 1)
			x, labels := g.G.Generate(3, rng, true)
			wantShape := append([]int{3}, a.OutShape...)
			for i, d := range wantShape {
				if x.Dim(i) != d {
					t.Fatalf("generated shape %v, want %v", x.Shape(), wantShape)
				}
			}
			src, cls := g.D.Forward(x, true)
			if src.Dim(0) != 3 || src.Dim(1) != 1 {
				t.Fatalf("src logits shape %v", src.Shape())
			}
			if a.Classes > 0 {
				if cls == nil || cls.Dim(1) != a.Classes {
					t.Fatalf("class logits missing or wrong: %v", cls)
				}
				if len(labels) != 3 {
					t.Fatal("conditional generator must return labels")
				}
			} else if cls != nil {
				t.Fatal("unconditional arch must not have a class head")
			}
		})
	}
}

// TestBatchOneStaysFiniteOnEveryArch trains every architecture at b = 1:
// minibatch discrimination is the only layer whose output depends on
// the rest of the batch, and a batch of one must leave every loss and
// parameter finite.
func TestBatchOneStaysFiniteOnEveryArch(t *testing.T) {
	for _, a := range everyArch() {
		t.Run(a.Name, func(t *testing.T) {
			g := a.NewGAN(3, nn.GenLossNonSaturating, 1)
			optG := opt.NewAdam(opt.AdamConfig{LR: 1e-3})
			optD := opt.NewAdam(opt.AdamConfig{LR: 1e-3})
			rng := rand.New(rand.NewSource(4))
			for it := 0; it < 3; it++ {
				xr := tensor.New(append([]int{1}, a.OutShape...)...)
				for i := range xr.Data {
					xr.Data[i] = tensor.Elem(2*rng.Float64() - 1)
				}
				var lr []int
				if a.Classes > 0 {
					lr = []int{rng.Intn(a.Classes)}
				}
				xg, lg := g.G.Generate(1, rng, true)
				if l := DiscStep(g.D, g.LossConfig, optD, xr, lr, xg, lg); math.IsNaN(l) || math.IsInf(l, 0) {
					t.Fatalf("iteration %d: discriminator loss %v", it, l)
				}
				if l := GenStepLocal(g, optG, 1, rng); math.IsNaN(l) || math.IsInf(l, 0) {
					t.Fatalf("iteration %d: generator loss %v", it, l)
				}
			}
			for _, ps := range [][]*nn.Param{g.G.Params(), g.D.Params()} {
				for _, p := range ps {
					for i, v := range p.W.Data {
						if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
							t.Fatalf("parameter %s[%d] = %v", p.Name, i, f)
						}
					}
				}
			}
		})
	}
}

func TestGeneratorConditioningChangesOutput(t *testing.T) {
	g := ScaledMLP(32).NewGAN(3, nn.GenLossNonSaturating, 1)
	z := tensor.New(1, 32)
	rng := rand.New(rand.NewSource(4))
	for i := range z.Data {
		z.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	a := g.G.Forward(z, []int{0}, false).Clone()
	b := g.G.Forward(z, []int{7}, false)
	if a.Equal(b, 1e-12) {
		t.Fatal("different classes should generate different outputs")
	}
}

func TestFeedbackShapeAndZeroedGrads(t *testing.T) {
	g := ScaledMLP(32).NewGAN(5, nn.GenLossNonSaturating, 1)
	rng := rand.New(rand.NewSource(6))
	xg, lg := g.G.Generate(4, rng, true)
	fn, loss := Feedback(g.D, g.LossConfig, xg, lg)
	if !fn.SameShape(xg) {
		t.Fatalf("feedback shape %v, want %v", fn.Shape(), xg.Shape())
	}
	if loss <= 0 {
		t.Fatalf("generator loss %v", loss)
	}
	// Feedback must not leave parameter gradients behind.
	for _, p := range g.D.Params() {
		for _, v := range p.Grad.Data {
			if v != 0 {
				t.Fatal("Feedback left discriminator gradients set")
			}
		}
	}
}

// TestFeedbackMatchesDirectBackprop verifies that applying the feedback
// to the generator is identical to backpropagating the generator loss
// end-to-end (standalone path): same Δw either way.
func TestFeedbackMatchesDirectBackprop(t *testing.T) {
	arch := ScaledMLP(32)
	g1 := arch.NewGAN(7, nn.GenLossNonSaturating, 1)
	g2 := arch.NewGAN(7, nn.GenLossNonSaturating, 1) // identical init

	rng1 := rand.New(rand.NewSource(8))
	z, labels := g1.G.SampleZ(5, rng1)

	// Path A: Feedback then G.Backward (the MD-GAN decomposition).
	xg := g1.G.Forward(z, labels, true)
	fn, _ := Feedback(g1.D, g1.LossConfig, xg, labels)
	g1.G.ZeroGrads()
	g1.G.Backward(fn)

	// Path B: monolithic backprop through D∘G.
	xg2 := g2.G.Forward(z, labels, true)
	src, cls := g2.D.Forward(xg2, true)
	_, gSrc := nn.GeneratorLoss(src, g2.GenLoss)
	var gCls *tensor.Tensor
	if cls != nil {
		_, gc := nn.SoftmaxCrossEntropy(cls, labels)
		gCls = gc
	}
	dIn := g2.D.Backward(gSrc, gCls)
	g2.G.ZeroGrads()
	g2.G.Backward(dIn)

	pb := g2.G.Net.Params()
	for i, pa := range g1.G.Net.Params() {
		for j, a := range pa.Grad.Data {
			if b := pb[i].Grad.Data[j]; math.Abs(float64(a)-float64(b)) > tensor.Tol(1e-12, 1e-6) {
				t.Fatalf("grad mismatch at param %d element %d: %g vs %g", i, j, a, b)
			}
		}
	}
}

func TestDiscStepLearnsToSeparate(t *testing.T) {
	// Real data at +1, "generated" data at −1 in 2-D: after a few steps
	// the discriminator should assign higher source logits to real.
	arch := RingMLP()
	g := arch.NewGAN(9, nn.GenLossNonSaturating, 0)
	optD := opt.NewAdam(opt.AdamConfig{LR: 5e-3})
	rng := rand.New(rand.NewSource(10))
	mk := func(center float64) *tensor.Tensor {
		x := tensor.New(16, 2)
		for i := range x.Data {
			x.Data[i] = tensor.Elem(center + 0.1*rng.NormFloat64())
		}
		return x
	}
	var lastLoss float64
	for i := 0; i < 60; i++ {
		lastLoss = DiscStep(g.D, g.LossConfig, optD, mk(1), nil, mk(-1), nil)
	}
	if lastLoss > 0.7 {
		t.Fatalf("disc loss after training = %v, want < 0.7", lastLoss)
	}
	srcRealBuf, _ := g.D.Forward(mk(1), false)
	srcReal := srcRealBuf.Clone() // network-owned buffer: survives next Forward
	srcFake, _ := g.D.Forward(mk(-1), false)
	// Both batches have 16 rows, so comparing sums compares means.
	if srcReal.Sum() <= srcFake.Sum() {
		t.Fatalf("real logit sum %v must exceed fake logit sum %v", srcReal.Sum(), srcFake.Sum())
	}
}

func TestGANCloneIndependent(t *testing.T) {
	g := ScaledMLP(32).NewGAN(11, nn.GenLossNonSaturating, 1)
	c := g.Clone()
	rng := rand.New(rand.NewSource(12))
	z, labels := g.G.SampleZ(2, rng)
	a := g.G.Forward(z, labels, false)
	b := c.G.Forward(z, labels, false)
	if !a.Equal(b, 0) {
		t.Fatal("clone must reproduce generator output")
	}
	c.G.Net.Params()[0].W.Data[0] += 1
	if g.G.Net.Params()[0].W.Data[0] == c.G.Net.Params()[0].W.Data[0] {
		t.Fatal("clone shares parameter storage")
	}
}

func TestDiscriminatorParamSerialization(t *testing.T) {
	arch := ScaledCNN(1, 16, 10)
	a := arch.NewGAN(13, nn.GenLossNonSaturating, 1)
	b := arch.NewGAN(14, nn.GenLossNonSaturating, 1) // different init
	buf := nn.AppendParams(nil, a.D.Params(), tensor.NativeDType)
	if n := nn.EncodedParamSize(a.D.Params(), tensor.NativeDType); int64(len(buf)) != n {
		t.Fatalf("wrote %d, EncodedParamSize %d", len(buf), n)
	}
	if _, err := nn.ReadParams(bytes.NewReader(buf), b.D.Params()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	x := tensor.New(2, 1, 16, 16)
	for i := range x.Data {
		x.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	sa, ca := a.D.Forward(x, false)
	sb, cb := b.D.Forward(x, false)
	if !sa.Equal(sb, 0) || !ca.Equal(cb, 0) {
		t.Fatal("discriminators must agree after parameter transfer")
	}
}

// TestStandaloneLearnsRing trains the tiny GAN on the Gaussian ring and
// checks that generated points move onto the ring (radius ~2).
func TestStandaloneLearnsRing(t *testing.T) {
	ds := dataset.GaussianRing(2000, 8, 2.0, 0.05, 1)
	cfg := TrainConfig{
		Batch: 32, Iters: 600, DiscSteps: 1,
		GenLoss: nn.GenLossNonSaturating,
		// Discriminator slightly faster than the generator — the
		// standard stable regime for small GANs.
		OptG: opt.AdamConfig{LR: 1e-3}, OptD: opt.AdamConfig{LR: 4e-3},
		Seed: 42,
	}
	g := TrainStandalone(ds, RingMLP(), cfg, nil)
	rng := rand.New(rand.NewSource(77))
	x, _ := g.G.Generate(256, rng, false)
	// Mean radius of generated points should approach 2 (untrained
	// generators emit points near the origin, radius < 0.5).
	sum := 0.0
	for i := 0; i < x.Dim(0); i++ {
		sum += math.Hypot(x.At(i, 0), x.At(i, 1))
	}
	mean := sum / float64(x.Dim(0))
	if mean < 1.2 || mean > 2.8 {
		t.Fatalf("mean generated radius %v, want ~2", mean)
	}
}

func TestTrainConfigDefaults(t *testing.T) {
	c := TrainConfig{}.Defaults()
	if c.Batch != 10 || c.Iters != 100 || c.DiscSteps != 1 {
		t.Fatalf("defaults = %+v", c)
	}
}
