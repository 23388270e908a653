package gan

import (
	"fmt"
	"math/rand"
	"testing"

	"mdgan/internal/dataset"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/tensor"
)

// DiscStep and Feedback back-propagate only the gradients they read.
// The references below are the same steps over a full, accumulating
// Discriminator.Backward into zeroed gradients — what both functions
// ran before they were given a want-set — and everything the
// restricted, gradient-writing pass produces must equal them bit for
// bit. (Whether DiscStep stacks its two batches is not this file's
// subject: the reference stacks when DiscStep does, and
// TestDiscStepFusedMatchesTwoPass compares the stacked step with two
// passes.)

func feedbackFull(d *Discriminator, lc LossConfig, xg *tensor.Tensor, lg []int) *tensor.Tensor {
	src, cls := d.Forward(xg, true)
	_, gSrc := nn.GeneratorLoss(src, lc.GenLoss)
	var gCls *tensor.Tensor
	if cls != nil && lc.ClsWeight > 0 && lg != nil {
		_, gc := nn.SoftmaxCrossEntropy(cls, lg)
		gCls = gc.ScaleInPlace(lc.ClsWeight)
	}
	return d.Backward(gSrc, gCls)
}

func discStepFull(d *Discriminator, lc LossConfig, optD opt.Optimizer, xr *tensor.Tensor, lr []int, xg *tensor.Tensor, lg []int) {
	d.ZeroGrads()
	if d.onePass(xr, xg) {
		// DiscStep stacks the two batches here; so does its reference,
		// which keeps the comparison about the want-set alone.
		discGradStacked(d, lc, xr, lr, xg, lg, nn.WantParams|nn.WantInput)
		optD.Step(d.Params())
		return
	}
	for _, b := range []struct {
		x      *tensor.Tensor
		labels []int
		target float64
	}{{xr, lr, 1}, {xg, lg, 0}} {
		src, cls := d.Forward(b.x, true)
		_, gSrc := nn.BCEWithLogits(src, b.target)
		var gCls *tensor.Tensor
		if cls != nil && lc.ClsWeight > 0 && b.labels != nil {
			_, gc := nn.SoftmaxCrossEntropy(cls, b.labels)
			gCls = gc.ScaleInPlace(lc.ClsWeight)
		}
		d.Backward(gSrc, gCls)
	}
	optD.Step(d.Params())
}

// wantCases are the three discriminator shapes the benchmark workloads
// train: dense trunk with a class head, conv trunk ending in minibatch
// discrimination, and the unconditional ring MLP.
type wantCase struct {
	arch Arch
	real *dataset.Dataset
}

func wantCases() []wantCase {
	return []wantCase{
		{PaperMLP(), dataset.SynthDigits(40, 3)},
		{ScaledCNN(3, 32, 10), dataset.SynthCIFAR(40, 3)},
		{RingMLP(), dataset.GaussianRing(40, 8, 2, 0.05, 3)},
	}
}

func bitsEqual(t *testing.T, what string, got, want *tensor.Tensor) {
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

func TestFeedbackMatchesFullBackward(t *testing.T) {
	const sentinel = tensor.Elem(-4321.5)
	for _, c := range wantCases() {
		t.Run(c.arch.Name, func(t *testing.T) {
			g := c.arch.NewGAN(11, nn.GenLossNonSaturating, 1)
			rng := rand.New(rand.NewSource(12))
			xg, lg := g.G.Generate(10, rng, true)
			want := feedbackFull(g.D.Clone(), g.LossConfig, xg, lg).Clone()

			for _, p := range g.D.Params() {
				for i := range p.Grad.Data {
					p.Grad.Data[i] = sentinel
				}
			}
			fn, _ := Feedback(g.D, g.LossConfig, xg, lg)
			bitsEqual(t, "F_n", fn, want)
			for _, p := range g.D.Params() {
				for i, v := range p.Grad.Data {
					if v != sentinel {
						t.Fatalf("Feedback wrote %s.Grad[%d] = %v; parameter gradients must be left untouched", p.Name, i, v)
					}
				}
			}
		})
	}
}

func TestDiscStepMatchesFullBackward(t *testing.T) {
	for _, c := range wantCases() {
		t.Run(c.arch.Name, func(t *testing.T) {
			g := c.arch.NewGAN(13, nn.GenLossNonSaturating, 1)
			ref := g.D.Clone()
			optD, optRef := opt.NewAdam(opt.AdamConfig{}), opt.NewAdam(opt.AdamConfig{})
			rng := rand.New(rand.NewSource(14))
			sampler := dataset.NewSampler(c.real, 15)
			// Two steps: the second runs on layers that already own an
			// input-gradient buffer from the Feedback in between.
			for step := 0; step < 2; step++ {
				xr, lr := sampler.Sample(10)
				xg, lg := g.G.Generate(10, rng, true)
				DiscStep(g.D, g.LossConfig, optD, xr, lr, xg, lg)
				discStepFull(ref, g.LossConfig, optRef, xr, lr, xg, lg)
				got, want := g.D.Params(), ref.Params()
				for i := range want {
					bitsEqual(t, want[i].Name+".Grad", got[i].Grad, want[i].Grad)
					bitsEqual(t, want[i].Name+" after Adam", got[i].W, want[i].W)
				}
				Feedback(g.D, g.LossConfig, xg, lg)
				feedbackFull(ref, g.LossConfig, xg, lg)
			}
		})
	}
}

// BenchmarkDiscStep and BenchmarkFeedback time the two calls an MD-GAN
// worker makes per iteration on the paper's MNIST MLP at the paper's
// batch size; an FL-GAN worker runs BenchmarkGenStepLocal in place of
// the feedback, so (DiscStep + GenStepLocal) / (DiscStep + Feedback) is
// the measured counterpart of Table II's worker reduction factor.
func BenchmarkFeedback(b *testing.B) {
	g := PaperMLP().NewGAN(1, nn.GenLossNonSaturating, 1)
	xg, lg := g.G.Generate(10, rand.New(rand.NewSource(2)), true)
	xg = xg.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Feedback(g.D, g.LossConfig, xg, lg)
	}
}

func BenchmarkDiscStep(b *testing.B) {
	// b=10 is the paper's batch. The larger ones walk the stacked 2b-row
	// batch out of the skinny GEMM range (m ≤ 36), where one pass must
	// still not lose to two.
	for _, batch := range []int{10, 16, 20, 32} {
		b.Run(fmt.Sprintf("b=%d", batch), func(b *testing.B) {
			g := PaperMLP().NewGAN(1, nn.GenLossNonSaturating, 1)
			xg, lg := g.G.Generate(batch, rand.New(rand.NewSource(2)), true)
			xg = xg.Clone()
			xr, lr := dataset.NewSampler(dataset.SynthDigits(40, 3), 4).Sample(batch)
			optD := opt.NewAdam(opt.AdamConfig{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DiscStep(g.D, g.LossConfig, optD, xr, lr, xg, lg)
			}
		})
	}
}

func BenchmarkGenStepLocal(b *testing.B) {
	g := PaperMLP().NewGAN(1, nn.GenLossNonSaturating, 1)
	optG := opt.NewAdam(opt.AdamConfig{})
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GenStepLocal(g, optG, 10, rng)
	}
}
