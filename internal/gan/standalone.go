package gan

import (
	"math/rand"

	"mdgan/internal/dataset"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
)

// TrainConfig carries the hyper-parameters shared by all three training
// algorithms (standalone, FL-GAN, MD-GAN).
type TrainConfig struct {
	Batch     int // b
	Iters     int // I: number of generator updates
	DiscSteps int // L: discriminator steps per generator update
	GenLoss   nn.GenLossMode
	OptG      opt.AdamConfig
	OptD      opt.AdamConfig
	Seed      int64
	// EvalEvery calls the evaluation hook every so many iterations
	// (0 disables evaluation).
	EvalEvery int
}

// Defaults fills zero fields with the experiment defaults.
func (c TrainConfig) Defaults() TrainConfig {
	if c.Batch == 0 {
		c.Batch = 10
	}
	if c.Iters == 0 {
		c.Iters = 100
	}
	switch {
	case c.DiscSteps == 0:
		c.DiscSteps = 1
	case c.DiscSteps < 0:
		c.DiscSteps = 0 // explicit "no discriminator updates"
	}
	return c
}

// EvalFunc observes the model during training (metric curves). It runs
// on the training goroutine; iter is the 1-based generator iteration.
type EvalFunc func(iter int, g *GAN)

// TrainStandalone trains arch on the full dataset on a single node —
// the paper's standalone-GAN baseline. The loop per iteration matches
// §II: sample a real batch, generate a batch, take L discriminator
// steps, then one generator step.
func TrainStandalone(ds *dataset.Dataset, arch Arch, cfg TrainConfig, eval EvalFunc) *GAN {
	cfg = cfg.Defaults()
	g := arch.NewGAN(cfg.Seed, cfg.GenLoss, 1)
	rng := rand.New(rand.NewSource(cfg.Seed + 1000))
	sampler := dataset.NewSampler(ds, cfg.Seed+2000)
	optG := opt.NewAdam(cfg.OptG)
	optD := opt.NewAdam(cfg.OptD)

	for it := 1; it <= cfg.Iters; it++ {
		xr, lr := sampler.Sample(cfg.Batch)
		xg, lg := g.G.Generate(cfg.Batch, rng, true)
		for l := 0; l < cfg.DiscSteps; l++ {
			DiscStep(g.D, g.LossConfig, optD, xr, lr, xg, lg)
		}
		GenStepLocal(g, optG, cfg.Batch, rng)
		if eval != nil && cfg.EvalEvery > 0 && it%cfg.EvalEvery == 0 {
			eval(it, g)
		}
	}
	return g
}
