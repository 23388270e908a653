// Package metrics implements the paper's evaluation measures: the
// classifier-based score (the "MNIST score"/Inception score of §V-A(c),
// higher is better) and the Fréchet Inception Distance (lower is
// better). The paper replaces the Inception network with a classifier
// adapted to each dataset; this package does exactly that, training a
// small classifier on the labelled synthetic data and using (a) its
// class posterior for the score and (b) its penultimate-layer features
// for FID.
package metrics

import (
	"fmt"
	"math"
	"math/rand"

	"mdgan/internal/dataset"
	"mdgan/internal/linalg"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/tensor"
)

// ScorerConfig configures classifier training.
type ScorerConfig struct {
	Epochs int // training epochs (default 8)
	Seed   int64
}

// The scoring classifier's shape and training batch. Its optimiser is
// Adam at the defaults (lr 1e-3).
const (
	scorerHidden     = 64 // trunk width
	scorerFeatureDim = 24 // penultimate feature dimension used by FID
	scorerBatch      = 32
)

// Scorer scores generated samples against the distribution its
// classifier was trained on.
type Scorer struct {
	trunk   *nn.Sequential // input → features
	head    *nn.Sequential // features → class logits
	classes int
}

// TrainScorer fits the scoring classifier on the labelled dataset.
func TrainScorer(ds *dataset.Dataset, cfg ScorerConfig) *Scorer {
	if cfg.Epochs == 0 {
		cfg.Epochs = 8
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	d := ds.SampleDim()
	trunk := nn.NewSequential(
		nn.NewFlatten(),
		nn.NewDense(d, scorerHidden, rng),
		nn.NewLeakyReLU(0.2),
		nn.NewDense(scorerHidden, scorerFeatureDim, rng),
		nn.NewLeakyReLU(0.2),
	)
	head := nn.NewSequential(nn.NewDense(scorerFeatureDim, ds.Classes, rng))
	s := &Scorer{trunk: trunk, head: head, classes: ds.Classes}

	optim := opt.NewAdam(opt.AdamConfig{})
	sampler := dataset.NewSampler(ds, cfg.Seed+2)
	steps := cfg.Epochs * (ds.Len() / scorerBatch)
	// Copy: Sequential.Params returns a cached slice that must not be
	// appended to in place.
	params := make([]*nn.Param, 0, len(trunk.Params())+len(head.Params()))
	params = append(params, trunk.Params()...)
	params = append(params, head.Params()...)
	for i := 0; i < steps; i++ {
		x, labels := sampler.Sample(scorerBatch)
		logits := head.Forward(trunk.Forward(x, true), true)
		_, grad := nn.SoftmaxCrossEntropy(logits, labels)
		trunk.ZeroGrads()
		head.ZeroGrads()
		trunk.BackwardWant(head.Backward(grad), nn.WantParams)
		optim.Step(params)
	}
	return s
}

// Accuracy returns classification accuracy on the given dataset — a
// self-check that the scorer is trustworthy before it judges a GAN.
func (s *Scorer) Accuracy(ds *dataset.Dataset) float64 {
	logits := s.head.Forward(s.trunk.Forward(ds.X, false), false)
	return nn.Accuracy(logits, ds.Labels)
}

// Features maps samples to the classifier's penultimate representation.
// The result is a network-owned buffer, valid until the next Features,
// Posteriors or Accuracy call on this scorer.
func (s *Scorer) Features(x *tensor.Tensor) *tensor.Tensor {
	return s.trunk.Forward(x, false)
}

// Posteriors returns p(y|x) rows for the given samples.
func (s *Scorer) Posteriors(x *tensor.Tensor) *tensor.Tensor {
	return nn.Softmax(s.head.Forward(s.trunk.Forward(x, false), false))
}

// Score computes the Inception-score analogue
// exp(E_x KL(p(y|x) ‖ p(y))) on a batch of generated samples. The value
// lies in [1, #classes]: 1 for junk or fully collapsed output, #classes
// for confident and perfectly diverse output.
func (s *Scorer) Score(x *tensor.Tensor) float64 {
	p := s.Posteriors(x)
	n, k := p.Dim(0), p.Dim(1)
	marginal := p.SumRows().Scale(1 / float64(n))
	klSum := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			pij := p.At(i, j)
			if pij <= 0 {
				continue
			}
			klSum += pij * (math.Log(pij) - math.Log(math.Max(marginal.At(0, j), 1e-300)))
		}
	}
	return math.Exp(klSum / float64(n))
}

// FID computes the Fréchet distance between classifier features of real
// and generated batches.
func (s *Scorer) FID(real, gen *tensor.Tensor) (float64, error) {
	fr := s.Features(real).Clone() // survives the second Features pass
	fg := s.Features(gen)
	mr, cr := linalg.MeanCov(fr)
	mg, cg := linalg.MeanCov(fg)
	// Regularise: tiny diagonal load keeps sqrtm stable when a feature
	// has near-zero variance in a small sample.
	for i := 0; i < cr.Dim(0); i++ {
		cr.Set(cr.At(i, i)+1e-6, i, i)
		cg.Set(cg.At(i, i)+1e-6, i, i)
	}
	fid, err := linalg.FrechetDistance(mr, cr, mg, cg)
	if err != nil {
		return 0, fmt.Errorf("metrics: FID: %w", err)
	}
	return fid, nil
}

// Classes returns the number of classes the scorer distinguishes.
func (s *Scorer) Classes() int { return s.classes }
