package gan

import (
	"math/rand"
	"testing"

	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/tensor"
)

// TestTrainingIterationSteadyStateAllocs pins the allocation budget of
// one full local training iteration (DiscStep + GenStepLocal) on an MLP
// couple. The seed implementation allocated ~300 times per iteration;
// with pooled workspaces and layer-owned buffers the steady state is
// dominated by the loss-gradient tensors and latent sampling only. The
// budget of 30 is the ≥10× regression gate.
func TestTrainingIterationSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	gnet := nn.NewSequential(
		nn.NewDense(16, 48, rng), nn.NewReLU(),
		nn.NewDense(48, 64, rng), nn.NewTanh(),
	)
	dnet := nn.NewSequential(nn.NewDense(64, 48, rng), nn.NewLeakyReLU(0.2))
	src := nn.NewSequential(nn.NewDense(48, 1, rng))
	g := &GAN{
		G: NewGenerator(gnet, 16, 0, rng),
		D: &Discriminator{Trunk: dnet, Src: src},
	}
	optD := opt.NewAdam(opt.AdamConfig{})
	optG := opt.NewAdam(opt.AdamConfig{})
	xr := tensor.New(10, 64)
	for i := range xr.Data {
		xr.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	step := func() {
		xg, lg := g.G.Generate(10, rng, true)
		DiscStep(g.D, g.LossConfig, optD, xr, nil, xg, lg)
		GenStepLocal(g, optG, 10, rng)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	n := testing.AllocsPerRun(30, step)
	t.Logf("allocs per DiscStep+GenStepLocal: %v (seed baseline: ~308)", n)
	budget := 30.0
	if raceEnabled {
		budget *= 2 // sporadic pool misses under the race detector
	}
	if n > budget {
		t.Fatalf("training iteration allocates %v per step, budget %v", n, budget)
	}
}

// TestRingWorkerStepSteadyStateAllocs pins a ring worker's share of an
// MD-GAN round on RingMLP at the ring-tiny batch (b = 16): a DiscStep
// and a Feedback. Most of their products are below gemmMinWork, so on
// the avx512 tier they take step 1's kernels, whose transposes borrow
// pool scratch; steady state allocates only what the other tiers do.
func TestRingWorkerStepSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	g := RingMLP().NewGAN(63, nn.GenLossNonSaturating, 1)
	optD := opt.NewAdam(opt.AdamConfig{})
	xr := tensor.New(16, 2)
	for i := range xr.Data {
		xr.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	xg, _ := g.G.Generate(16, rng, true)
	xg = xg.Clone()
	step := func() {
		DiscStep(g.D, g.LossConfig, optD, xr, nil, xg, nil)
		Feedback(g.D, g.LossConfig, xg, nil)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	n := testing.AllocsPerRun(30, step)
	t.Logf("allocs per ring DiscStep+Feedback: %v", n)
	budget := 8.0
	if raceEnabled {
		budget *= 2 // sporadic pool misses under the race detector
	}
	if n > budget {
		t.Fatalf("ring worker step allocates %v per step, budget %v", n, budget)
	}
}

// TestConditionalTrainingIterationSteadyStateAllocs covers the ACGAN
// path (class head + embedding) at a looser budget: the softmax
// cross-entropy still allocates its probability/gradient tensors.
func TestConditionalTrainingIterationSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	g := ScaledMLP(32).NewGAN(7, nn.GenLossNonSaturating, 1)
	optD := opt.NewAdam(opt.AdamConfig{})
	optG := opt.NewAdam(opt.AdamConfig{})
	xr := tensor.New(10, 784)
	lr := make([]int, 10)
	for i := range xr.Data {
		xr.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	for i := range lr {
		lr[i] = rng.Intn(10)
	}
	step := func() {
		xg, lg := g.G.Generate(10, rng, true)
		DiscStep(g.D, g.LossConfig, optD, xr, lr, xg, lg)
		GenStepLocal(g, optG, 10, rng)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	n := testing.AllocsPerRun(30, step)
	t.Logf("allocs per conditional iteration: %v", n)
	// The 784-feature MLP crosses the matmul parallel grain in most
	// layers (one fan-out closure each), and the class head adds a
	// softmax/gradient tensor per pass — a higher floor than the
	// unconditional couple.
	budget := 110.0
	if raceEnabled {
		budget *= 2 // sporadic pool misses under the race detector
	}
	if n > budget {
		t.Fatalf("conditional training iteration allocates %v per step, budget %v", n, budget)
	}
}
