package gan

import (
	"math"
	"math/rand"
	"testing"

	"mdgan/internal/dataset"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/tensor"
)

// DiscStep runs the real and the generated batch through a row-wise
// discriminator as one stacked batch and writes its gradients instead
// of clearing and accumulating them. discStepTwoPass is the step it
// replaced, kept here as the reference: clear, one forward and backward
// pass per batch, update. The stacked step must agree with it up to the
// order a weight gradient's terms are added in, and must not be taken at
// all when a layer couples the rows of a batch.

func discStepTwoPass(d *Discriminator, lc LossConfig, optD opt.Optimizer, xr *tensor.Tensor, lr []int, xg *tensor.Tensor, lg []int) float64 {
	d.ZeroGrads()
	loss := 0.0
	src, cls := d.Forward(xr, true)
	lSrc, gSrc := nn.BCEWithLogits(src, 1)
	loss += lSrc
	var gCls *tensor.Tensor
	if cls != nil && lc.ClsWeight > 0 {
		lCls, gc := nn.SoftmaxCrossEntropy(cls, lr)
		loss += lc.ClsWeight * lCls
		gCls = gc.ScaleInPlace(lc.ClsWeight)
	}
	d.BackwardWant(gSrc, gCls, nn.WantParams)
	src, cls = d.Forward(xg, true)
	lSrc, gSrc = nn.BCEWithLogits(src, 0)
	loss += lSrc
	gCls = nil
	if cls != nil && lc.ClsWeight > 0 && lg != nil {
		lCls, gc := nn.SoftmaxCrossEntropy(cls, lg)
		loss += lc.ClsWeight * lCls
		gCls = gc.ScaleInPlace(lc.ClsWeight)
	}
	d.BackwardWant(gSrc, gCls, nn.WantParams)
	optD.Step(d.Params())
	return loss
}

// plainLayer hides every method but the Layer interface's, the way a
// decorator outside package nn does (bench/trace.go's timedLayer): it
// has no BackwardWant, and nn does not know its type.
type plainLayer struct{ nn.Layer }

func (p plainLayer) Clone() nn.Layer { return plainLayer{p.Layer.Clone()} }

// decorate wraps every parameter layer of s in a plainLayer.
func decorate(s *nn.Sequential) {
	for i, l := range s.Layers {
		if len(l.Params()) > 0 {
			s.Layers[i] = plainLayer{l}
		}
	}
}

// randBatch draws an (n, shape...) batch of standard normals.
func randBatch(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	return x
}

// fusedCase is a discriminator with a source of real and generated
// batches for it.
type fusedCase struct {
	name    string
	d       *Discriminator
	lc      LossConfig
	onePass bool // whether DiscStep may stack the batches
	batches func() (xr *tensor.Tensor, lr []int, xg *tensor.Tensor, lg []int)
}

func fusedCases() []fusedCase {
	fromArch := func(name string, a Arch, real *dataset.Dataset, onePass bool, edit func(*Discriminator)) fusedCase {
		g := a.NewGAN(21, nn.GenLossNonSaturating, 1)
		if edit != nil {
			edit(g.D)
		}
		rng := rand.New(rand.NewSource(22))
		sampler := dataset.NewSampler(real, 23)
		return fusedCase{name, g.D, g.LossConfig, onePass, func() (*tensor.Tensor, []int, *tensor.Tensor, []int) {
			xr, lr := sampler.Sample(10)
			xg, lg := g.G.Generate(10, rng, true)
			return xr, lr, xg.Clone(), lg
		}}
	}
	// An unconditional convolutional discriminator without minibatch
	// discrimination: Conv2D takes the stacked batch and the write bit.
	rng := rand.New(rand.NewSource(24))
	conv := &Discriminator{
		Trunk: nn.NewSequential(
			nn.NewConv2D(2, 8, 8, 5, 3, 2, 1, rng), nn.NewLeakyReLU(0.2),
			nn.NewFlatten(), nn.NewDense(5*4*4, 24, rng), nn.NewLeakyReLU(0.2)),
		Src: nn.NewSequential(nn.NewDense(24, 1, rng)),
	}
	return []fusedCase{
		fromArch("paper-mlp", PaperMLP(), dataset.SynthDigits(40, 3), true, nil),
		fromArch("ring-mlp", RingMLP(), dataset.GaussianRing(40, 8, 2, 0.05, 3), true, nil),
		{"conv-no-mbd", conv, LossConfig{}, true, func() (*tensor.Tensor, []int, *tensor.Tensor, []int) {
			return randBatch(rng, 10, 2, 8, 8), nil, randBatch(rng, 10, 2, 8, 8), nil
		}},
		// Minibatch discrimination couples the rows of a batch.
		fromArch("scaled-cnn", ScaledCNN(3, 32, 10), dataset.SynthCIFAR(40, 3), false, nil),
		// So, for all DiscStep can tell, does a layer type it has never
		// seen.
		fromArch("ring-mlp-decorated", RingMLP(), dataset.GaussianRing(40, 8, 2, 0.05, 3), false,
			func(d *Discriminator) { decorate(d.Trunk) }),
	}
}

// TestDiscStepFusedMatchesTwoPass compares the stacked step with two
// passes: the loss and every gradient element within tol, and the
// weights after Adam within tol wherever the gradient is above rounding
// level. Adam's first step moves a weight by lr·g/(|g|+ε), about lr
// however small |g| is, so two orders of summing a gradient element that
// cancels to rounding level can move its weight apart by up to 2·lr. On
// the f32 build with the avx2 kernels the paper MLP has such an element:
// dense512x512.W[115097] takes g = −9.31e-10 stacked and −1.106e-9 in
// two passes while max|g| is 0.303, and the weights end 1.44e-5 apart.
// So a weight is compared only while every gradient it has taken is at
// least gradFloor·max|g| of its parameter; once one falls below, the
// element carries that difference and is left out of later steps too.
func TestDiscStepFusedMatchesTwoPass(t *testing.T) {
	tol := tensor.Tol(1e-12, 1e-5)
	gradFloor := tensor.Tol(1e-12, 1e-5)
	for _, c := range fusedCases() {
		t.Run(c.name, func(t *testing.T) {
			ref := c.d.Clone()
			optD, optRef := opt.NewAdam(opt.AdamConfig{}), opt.NewAdam(opt.AdamConfig{})
			// rounding[i][j]: parameter i's element j has taken a
			// rounding-level gradient.
			rounding := make([][]bool, len(ref.Params()))
			for i, p := range ref.Params() {
				rounding[i] = make([]bool, p.W.Size())
			}
			// Two steps with a Feedback between: the second runs on Adam
			// moments and on layers that own input-gradient buffers.
			for step := 0; step < 2; step++ {
				xr, lr, xg, lg := c.batches()
				if got := c.d.onePass(xr, xg); got != c.onePass {
					t.Fatalf("onePass = %v, want %v", got, c.onePass)
				}
				loss := DiscStep(c.d, c.lc, optD, xr, lr, xg, lg)
				want := discStepTwoPass(ref, c.lc, optRef, xr, lr, xg, lg)
				if !(math.Abs(loss-want) <= tol) {
					t.Fatalf("step %d: loss %v, two passes give %v", step, loss, want)
				}
				ps, rs := c.d.Params(), ref.Params()
				for i := range rs {
					if c.onePass {
						if !ps[i].Grad.Equal(rs[i].Grad, tol) {
							t.Fatalf("step %d: %s.Grad differs from two passes", step, rs[i].Name)
						}
						maxG := 0.0
						for _, g := range rs[i].Grad.Data {
							maxG = math.Max(maxG, math.Abs(float64(g)))
						}
						for j, g := range rs[i].Grad.Data {
							if math.Abs(float64(g)) < gradFloor*maxG {
								rounding[i][j] = true
							}
							if d := math.Abs(float64(ps[i].W.Data[j]) - float64(rs[i].W.Data[j])); !rounding[i][j] && !(d <= tol) {
								t.Fatalf("step %d: %s[%d] after Adam differs from two passes by %g (g = %g, max|g| = %g)",
									step, rs[i].Name, j, d, g, maxG)
							}
						}
						continue
					}
					// Two passes here too: not one bit may move.
					bitsEqual(t, rs[i].Name+".Grad", ps[i].Grad, rs[i].Grad)
					bitsEqual(t, rs[i].Name+" after Adam", ps[i].W, rs[i].W)
				}
				Feedback(c.d, c.lc, xg, lg)
				Feedback(ref, c.lc, xg, lg)
			}
		})
	}
}

// fillGrads sets every gradient of ps to v.
func fillGrads(ps []*nn.Param, v float64) {
	for _, p := range ps {
		p.Grad.CopyFrom(tensor.Full(v, p.Grad.Shape()...))
	}
}

// TestDiscStepIgnoresStaleGrads: a step computes its gradients from its
// own batches alone. Whatever the previous step, a crashed round or a
// swap left in Param.Grad — NaN here — the result is bitwise the one
// zeroed gradients give: on the stacked path, which writes them; on the
// two-pass path, which clears them; and through a generator layer
// without BackwardWant, whose gradients Sequential clears before the
// layer accumulates.
func TestDiscStepIgnoresStaleGrads(t *testing.T) {
	for _, c := range fusedCases() {
		t.Run(c.name, func(t *testing.T) {
			ref := c.d.Clone()
			optD, optRef := opt.NewAdam(opt.AdamConfig{}), opt.NewAdam(opt.AdamConfig{})
			xr, lr, xg, lg := c.batches()
			fillGrads(c.d.Params(), math.NaN())
			fillGrads(ref.Params(), 0)
			DiscStep(c.d, c.lc, optD, xr, lr, xg, lg)
			DiscStep(ref, c.lc, optRef, xr, lr, xg, lg)
			ps, rs := c.d.Params(), ref.Params()
			for i := range rs {
				bitsEqual(t, rs[i].Name+".Grad", ps[i].Grad, rs[i].Grad)
				bitsEqual(t, rs[i].Name+" after Adam", ps[i].W, rs[i].W)
			}
		})
	}
	for _, arch := range []Arch{ScaledMLP(16), ScaledCNN(1, 16, 0)} {
		for _, decorated := range []bool{false, true} {
			name := arch.Name
			if decorated {
				name += "-decorated"
			}
			t.Run("GenStepLocal/"+name, func(t *testing.T) {
				g := arch.NewGAN(31, nn.GenLossNonSaturating, 1)
				ref := g.Clone()
				if decorated {
					decorate(g.G.Net)
				}
				fillGrads(g.G.Params(), math.NaN())
				GenStepLocal(g, opt.NewAdam(opt.AdamConfig{}), 10, rand.New(rand.NewSource(32)))
				GenStepLocal(ref, opt.NewAdam(opt.AdamConfig{}), 10, rand.New(rand.NewSource(32)))
				ps, rs := g.G.Params(), ref.G.Params()
				for i := range rs {
					bitsEqual(t, rs[i].Name+".Grad", ps[i].Grad, rs[i].Grad)
					bitsEqual(t, rs[i].Name+" after Adam", ps[i].W, rs[i].W)
				}
			})
		}
	}
}

// ringScore trains the standalone ring GAN for one seed with the given
// discriminator step and returns the share of generated points within
// 0.5 of the ring's radius (an untrained generator's sit near the
// origin).
func ringScore(seed int64, discStep func(*Discriminator, LossConfig, opt.Optimizer, *tensor.Tensor, []int, *tensor.Tensor, []int) float64) float64 {
	const batch, iters = 32, 600
	ds := dataset.GaussianRing(2000, 8, 2.0, 0.05, 1)
	g := RingMLP().NewGAN(seed, nn.GenLossNonSaturating, 1)
	rng := rand.New(rand.NewSource(seed + 1000))
	sampler := dataset.NewSampler(ds, seed+2000)
	optG, optD := opt.NewAdam(opt.AdamConfig{LR: 1e-3}), opt.NewAdam(opt.AdamConfig{LR: 4e-3})
	for it := 0; it < iters; it++ {
		xr, lr := sampler.Sample(batch)
		xg, lg := g.G.Generate(batch, rng, true)
		discStep(g.D, g.LossConfig, optD, xr, lr, xg, lg)
		GenStepLocal(g, optG, batch, rng)
	}
	x, _ := g.G.Generate(512, rand.New(rand.NewSource(77)), false)
	on := 0
	for i := 0; i < x.Dim(0); i++ {
		if math.Abs(math.Hypot(x.At(i, 0), x.At(i, 1))-2) < 0.5 {
			on++
		}
	}
	return float64(on) / float64(x.Dim(0))
}

// TestFusedStepLearnsLikeTwoPass is the check a reduction-order change
// owes (the stacked step sums a weight gradient's 2b terms in one chain,
// two passes in two): same task, same budget, five seeds, and the
// stacked step's final score sits inside the spread the two-pass loop
// shows across seeds. The loop is TrainStandalone's, with the
// discriminator step as the one thing that varies.
func TestFusedStepLearnsLikeTwoPass(t *testing.T) {
	var fused, twoPass []float64
	for seed := int64(1); seed <= 5; seed++ {
		fused = append(fused, ringScore(seed, DiscStep))
		twoPass = append(twoPass, ringScore(seed, discStepTwoPass))
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	lo, hi := twoPass[0], twoPass[0]
	for _, s := range twoPass {
		lo, hi = math.Min(lo, s), math.Max(hi, s)
	}
	t.Logf("on-ring share after 600 iterations, seeds 1–5: stacked %.3f (mean %.3f), two passes %.3f (mean %.3f, spread %.3f)",
		fused, mean(fused), twoPass, mean(twoPass), hi-lo)
	if d := math.Abs(mean(fused) - mean(twoPass)); d > hi-lo {
		t.Fatalf("stacked step scores %.3f on average, two passes %.3f: further apart than the two-pass seeds are from each other (%.3f)",
			mean(fused), mean(twoPass), hi-lo)
	}
	if mean(fused) < 0.5 {
		t.Fatalf("stacked step did not learn the ring: mean on-ring share %.3f", mean(fused))
	}
}
