// Package mdgan is a pure-Go implementation of MD-GAN — Multi-
// Discriminator Generative Adversarial Networks for Distributed
// Datasets (Hardy, Le Merrer, Sericola; IPDPS 2019) — together with the
// two baselines the paper evaluates against (standalone GAN training
// and FL-GAN, federated averaging adapted to GANs), the synthetic
// datasets, the evaluation metrics (classifier score and FID) and the
// communication-cost models of the paper's Tables II–IV and Figure 2.
//
// The package is a facade: the heavy lifting lives in internal/
// packages (tensor math, layers, optimisers, the cluster substrate),
// and the types needed at the API surface are re-exported as aliases.
//
// Quick start:
//
//	ds := mdgan.GaussianRing(4000, 8, 2.0, 0.05, 1)
//	res, err := mdgan.Run(ds, mdgan.RingArch(), mdgan.Options{
//		Algorithm: mdgan.MDGAN, Workers: 4, Iters: 500,
//	}, nil)
package mdgan

import (
	"fmt"
	"math/rand"
	"reflect"

	"mdgan/internal/cluster"
	"mdgan/internal/core"
	"mdgan/internal/dataset"
	"mdgan/internal/flgan"
	"mdgan/internal/gan"
	"mdgan/internal/metrics"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// Re-exported types. External importers use these names; the internal
// packages stay private.
type (
	// Dataset is an in-memory labelled dataset.
	Dataset = dataset.Dataset
	// Scorer computes the classifier score and FID.
	Scorer = metrics.Scorer
	// Arch is a GAN architecture specification.
	Arch = gan.Arch
	// Generator is a trained generator.
	Generator = gan.Generator
	// GAN is a generator/discriminator couple.
	GAN = gan.GAN
	// Traffic is a communication accounting snapshot.
	Traffic = simnet.Traffic
	// Tensor is a dense numeric array.
	Tensor = tensor.Tensor
)

// Extension knobs re-exported from the core (paper §VII).
type (
	// Compression selects the error-feedback wire encoding (§VII.2).
	Compression = core.Compression
	// ByzantineMode describes a compromised worker's attack (§VII.3).
	ByzantineMode = core.ByzantineMode
	// Aggregation selects the server's feedback-merge rule.
	Aggregation = core.Aggregation
	// SwapPrecision selects the wire width of discriminator swap
	// payloads (SwapFP32 by default — half of Table III's W→W row on
	// the float64 build).
	SwapPrecision = core.SwapPrecision
	// Lifetime bounds one worker's participation window (temporary
	// discriminators): a join round and a graceful retire round.
	Lifetime = cluster.Lifetime
	// DefenseScore is a worker's end-of-run feedback-quality snapshot
	// (suspicion, average cosine, replay hits), under Faults.Defense.
	DefenseScore = cluster.DefenseScore
)

// Fault-tolerance surface: transient-fault accounting and the seeded
// chaos transport used to exercise it.
type (
	// FaultStats is a run's transient-fault accounting (timeouts,
	// suspects, demotions, rejoins, corrupt frames, transport retries).
	FaultStats = cluster.FaultStats
	// ChaosConfig parameterises the seeded fault-injecting transport
	// wrapper (drop/delay/duplicate/corrupt probabilities).
	ChaosConfig = simnet.ChaosConfig
	// ChaosStats counts the faults a ChaosNet actually injected.
	ChaosStats = simnet.ChaosStats
	// LinkKind classifies a message's link (CtoW, WtoC, WtoW) — used
	// to scope ChaosConfig.CorruptKinds.
	LinkKind = simnet.Kind
)

// Link kinds for ChaosConfig.CorruptKinds.
const (
	LinkCtoW = simnet.CtoW
	LinkWtoC = simnet.WtoC
	LinkWtoW = simnet.WtoW
)

// Re-exported extension constants.
const (
	CompressNone = core.CompressNone
	CompressFP32 = core.CompressFP32
	CompressTopK = core.CompressTopK

	SwapFP32   = core.SwapFP32
	SwapNative = core.SwapNative

	ByzantineNone   = core.ByzantineNone
	ByzantineRandom = core.ByzantineRandom
	ByzantineInvert = core.ByzantineInvert
	ByzantineScale  = core.ByzantineScale

	// Free-rider attacks: fabricated feedback, no discriminator run.
	FreeRiderRandom      = core.FreeRiderRandom
	FreeRiderReplay      = core.FreeRiderReplay
	FreeRiderScaledNoise = core.FreeRiderScaledNoise

	AggMean        = core.AggMean
	AggMedian      = core.AggMedian
	AggTrimmedMean = core.AggTrimmedMean
)

// Algorithm selects one of the three training algorithms of the paper.
type Algorithm string

// The competing approaches of §V.
const (
	Standalone Algorithm = "standalone"
	FLGAN      Algorithm = "fl-gan"
	MDGAN      Algorithm = "md-gan"
)

// Dataset constructors (synthetic stand-ins for the paper's datasets;
// package internal/dataset documents the substitution).

// SynthDigits generates an MNIST-like dataset: n 28×28 grayscale digit
// images in 10 classes.
func SynthDigits(n int, seed int64) *Dataset { return dataset.SynthDigits(n, seed) }

// SynthDigitsSized generates digit images at a custom resolution.
func SynthDigitsSized(n, size int, seed int64) *Dataset {
	return dataset.SynthDigitsSize(n, seed, size)
}

// SynthCIFAR generates a CIFAR10-like dataset: n 32×32 RGB images in 10
// classes.
func SynthCIFAR(n int, seed int64) *Dataset { return dataset.SynthCIFAR(n, seed) }

// SynthCIFARSized generates CIFAR-like images at a custom resolution.
func SynthCIFARSized(n, size int, seed int64) *Dataset {
	return dataset.SynthCIFARSize(n, seed, size)
}

// SynthFaces generates a CelebA-like dataset: n 32×32 RGB face images
// with 8 attribute classes.
func SynthFaces(n int, seed int64) *Dataset { return dataset.SynthFaces(n, seed) }

// GaussianRing generates the 2-D mixture-of-Gaussians toy dataset.
func GaussianRing(n, modes int, radius, std float64, seed int64) *Dataset {
	return dataset.GaussianRing(n, modes, radius, std, seed)
}

// Split partitions a dataset into n i.i.d. shards (one per worker).
func Split(ds *Dataset, n int, seed int64) []*Dataset { return dataset.Split(ds, n, seed) }

// SplitNonIID partitions with label skew in [0, 1] (0 = i.i.d., 1 =
// pathological sort-by-label), relaxing the paper's i.i.d. assumption.
func SplitNonIID(ds *Dataset, n int, skew float64, seed int64) []*Dataset {
	return dataset.SplitNonIID(ds, n, skew, seed)
}

// LabelSkew measures a shard's class-distribution distance from its
// parent as total variation in [0, 1].
func LabelSkew(shard, parent *Dataset) float64 { return dataset.LabelSkew(shard, parent) }

// Architecture selectors.

// PaperMLPArch returns the paper's exact MLP architecture
// (716,560 / 670,219 parameters).
func PaperMLPArch() Arch { return gan.PaperMLP() }

// MLPArch returns a width-h MLP for 28×28 images.
func MLPArch(h int) Arch { return gan.ScaledMLP(h) }

// CNNArch returns a scaled convolutional architecture for size×size
// images with c channels and the given class count.
func CNNArch(c, size, classes int) Arch { return gan.ScaledCNN(c, size, classes) }

// PaperCNNMNISTArch returns the paper-shaped CNN for MNIST.
func PaperCNNMNISTArch() Arch { return gan.PaperCNNMNIST() }

// PaperCNNCIFARArch returns the paper-shaped CNN for CIFAR10.
func PaperCNNCIFARArch() Arch { return gan.PaperCNNCIFAR() }

// FacesArch returns the Fig. 6 (CelebA) architecture adapted to 32×32.
func FacesArch() Arch { return gan.FacesCNN() }

// RingArch returns the tiny GAN for the Gaussian-ring toy set.
func RingArch() Arch { return gan.RingMLP() }

// ArchFor picks a sensible architecture for a dataset by its geometry.
func ArchFor(ds *Dataset) Arch {
	switch {
	case ds.C == 0:
		return gan.RingMLP()
	case ds.C == 1 && ds.H == 28:
		return gan.ScaledMLP(128)
	default:
		return gan.ScaledCNN(ds.C, ds.H, ds.Classes)
	}
}

// TrainScorer fits the metric classifier on a labelled dataset.
// Training takes a few seconds; reuse the scorer across runs.
func TrainScorer(ds *Dataset, seed int64) *Scorer {
	return metrics.TrainScorer(ds, metrics.ScorerConfig{Seed: seed})
}

// ModeCoverage reports the fraction of Gaussian-ring modes hit by the
// generated 2-D points (diversity: 1 = all modes, 1/modes = collapse).
func ModeCoverage(x *Tensor, modes int, radius, tol float64) float64 {
	return metrics.ModeCoverage(x, modes, radius, tol)
}

// HighQualityFraction reports the share of generated 2-D points within
// tol of any ring mode (sample quality).
func HighQualityFraction(x *Tensor, modes int, radius, tol float64) float64 {
	return metrics.HighQualityFraction(x, modes, radius, tol)
}

// Engine holds the settings only MD-GAN reads — the §IV-A dynamic
// joins and the §VII extensions — each typed and documented once, on
// core.Engine. The zero value is the paper's strict Algorithm 1.
// ParseTopology and ParseSwapSchedule build its Topology and SwapSched
// from CLI specs.
type Engine = core.Engine

// Options configures a training run. Zero values select the experiment
// defaults noted per field. Two settings are fixed: the ACGAN auxiliary
// classification loss has weight 1 on conditional architectures, and
// FL-GAN trains E = 1 local epoch per round.
//
// The MD-GAN-only knobs live in the embedded Engine, the same struct the
// core engine reads, so they are declared once; a non-zero Engine (or
// Chaos) under Standalone or FLGAN is an error rather than ignored. K
// and SwapEvery are MD-GAN's too but stay flat, beside the settings the
// baselines share, because nearly every MD-GAN run sets them.
type Options struct {
	Algorithm Algorithm // default MDGAN
	Workers   int       // N; default 10 (ignored by Standalone)
	K         int       // MD-GAN batches/iteration; 0 → ⌊ln N⌋ (≥1)
	SwapEvery int       // E epochs between swaps; 0 → 1; <0 disables

	Batch     int     // b; default 10
	Iters     int     // I (generator updates); default 100
	DiscSteps int     // L; default 1; <0 → none
	LRG       float64 // generator Adam learning rate; default 1e-3
	LRD       float64 // discriminator Adam learning rate; default 4e-3
	Beta1     float64 // Adam β1 (both sides); default 0.9
	Beta2     float64 // Adam β2 (both sides); default 0.999
	PaperLoss bool    // use the paper's log(1−D) generator objective

	Seed      int64
	EvalEvery int // metric cadence in iterations; 0 disables

	// CrashAt schedules fail-stop worker crashes through the shared
	// membership layer: iteration → worker indices for MD-GAN, round →
	// worker indices for FL-GAN.
	CrashAt map[int][]int
	// UseTCP runs workers over real loopback sockets instead of
	// in-process channels.
	UseTCP bool
	// ActivePerRound activates only a random subset of workers per
	// iteration (MD-GAN) or per round (FL-GAN); 0 = all.
	ActivePerRound int
	// NonIIDSkew, when > 0, shards the dataset with label skew instead
	// of i.i.d. (applies to MD-GAN and FL-GAN).
	NonIIDSkew float64
	// Chaos, when non-nil, wraps MD-GAN's transport in a seeded
	// fault-injecting ChaosNet (drops, delays, duplicates, payload
	// corruption) — pair it with RoundTimeout to exercise the
	// suspect/rejoin machinery deterministically.
	Chaos *ChaosConfig

	Engine
}

// ParseTopology resolves a feedback-aggregation overlay spec for
// Engine.Topology: "" or "flat" is the paper's star (nil),
// "tree:<depth>" reduces feedbacks through worker-side aggregators so
// server ingress is bounded by its fan-in. fanin overrides the tree's
// per-node child bound (≥ 2; 0 = ceil(N^(1/depth))); a non-zero fanin
// without a tree is an error.
func ParseTopology(spec string, fanin int) (*cluster.Tree, error) {
	return cluster.ParseTopology(spec, fanin)
}

// ParseSwapSchedule resolves a discriminator-swap plan for
// Engine.SwapSched: "" or "ring" is the paper's cyclic permutation,
// "shuffle" a random pairwise exchange, "gossip[:pairs]" a sparse
// subset of pairs per swap.
func ParseSwapSchedule(spec string) (core.SwapSchedule, error) {
	return core.ParseSwapSchedule(spec)
}

func (o Options) defaults() Options {
	if o.Algorithm == "" {
		o.Algorithm = MDGAN
	}
	if o.Workers == 0 {
		o.Workers = 10
	}
	if o.LRD == 0 {
		o.LRD = 4e-3 // the core's Adam default is 1e-3
	}
	return o
}

// shard partitions the dataset for the distributed algorithms,
// honouring the non-IID knob.
func (o Options) shard(ds *Dataset) []*Dataset {
	if o.NonIIDSkew > 0 {
		return dataset.SplitNonIID(ds, o.Workers, o.NonIIDSkew, o.Seed+500)
	}
	return dataset.Split(ds, o.Workers, o.Seed+500)
}

func (o Options) trainConfig() gan.TrainConfig {
	mode := nn.GenLossNonSaturating
	if o.PaperLoss {
		mode = nn.GenLossPaper
	}
	return gan.TrainConfig{
		Batch: o.Batch, Iters: o.Iters, DiscSteps: o.DiscSteps,
		GenLoss: mode,
		OptG:    opt.AdamConfig{LR: o.LRG, Beta1: o.Beta1, Beta2: o.Beta2},
		OptD:    opt.AdamConfig{LR: o.LRD, Beta1: o.Beta1, Beta2: o.Beta2},
		Seed:    o.Seed, EvalEvery: o.EvalEvery,
	}
}

// Curve is a metric trajectory (the y-values of Figs. 3, 5, 6).
type Curve struct {
	Name  string
	Iters []int
	Score []float64 // classifier score (MS/IS analogue), higher is better
	FID   []float64 // Fréchet distance, lower is better
}

// Last returns the final (score, fid) point, or zeros when empty.
func (c *Curve) Last() (score, fid float64) {
	if len(c.Iters) == 0 {
		return 0, 0
	}
	return c.Score[len(c.Score)-1], c.FID[len(c.FID)-1]
}

// Evaluator turns a generator into metric points against held-out real
// data.
type Evaluator struct {
	Scorer  *Scorer
	Real    *Dataset
	Samples int // generated/real sample count per evaluation (paper: 500)
	Seed    int64
}

// NewEvaluator builds an evaluator with the paper's 500-sample default.
func NewEvaluator(s *Scorer, real *Dataset, samples int) *Evaluator {
	if samples == 0 {
		samples = 500
	}
	return &Evaluator{Scorer: s, Real: real, Samples: samples, Seed: 12345}
}

// Eval computes (score, FID) for the generator's current parameters.
// The latent draw is seeded per call for run-to-run determinism.
func (e *Evaluator) Eval(g *Generator, iter int) (score, fid float64) {
	rng := rand.New(rand.NewSource(e.Seed + int64(iter)))
	gen, _ := g.Generate(e.Samples, rng, false)
	score = e.Scorer.Score(gen)
	idx := make([]int, e.Samples)
	for i := range idx {
		idx[i] = rng.Intn(e.Real.Len())
	}
	real, _ := e.Real.Batch(idx)
	f, err := e.Scorer.FID(real, gen)
	if err != nil {
		return score, -1
	}
	return score, f
}

// RunResult is the outcome of Run.
type RunResult struct {
	// Curve holds the metric trajectory (empty without an Evaluator or
	// with EvalEvery == 0).
	Curve Curve
	// Traffic is the communication accounting (zero for Standalone,
	// which exchanges no messages).
	Traffic Traffic
	// Live lists surviving workers (MD-GAN and FL-GAN).
	Live []string
	// G is the trained generator (the server's for FL-GAN/MD-GAN).
	G *Generator
	// Iters is the number of generator updates performed.
	Iters int
	// Faults is the transient-fault accounting (MD-GAN only; zero on
	// fault-free runs).
	Faults FaultStats
	// Chaos counts the faults injected by Options.Chaos (zero when no
	// chaos transport was requested).
	Chaos ChaosStats
}

// Run trains with the selected algorithm on ds and returns the result.
// ev may be nil to skip metric evaluation.
func Run(ds *Dataset, arch Arch, o Options, ev *Evaluator) (*RunResult, error) {
	o = o.defaults()
	curve := Curve{Name: string(o.Algorithm)}
	hook := func(it int, g *Generator) {
		if ev == nil {
			return
		}
		s, f := ev.Eval(g, it)
		curve.Iters = append(curve.Iters, it)
		curve.Score = append(curve.Score, s)
		curve.FID = append(curve.FID, f)
	}

	if o.Algorithm != MDGAN && (o.Chaos != nil || !reflect.ValueOf(o.Engine).IsZero()) {
		return nil, fmt.Errorf("mdgan: %s ignores Chaos and the Engine settings; they are MD-GAN only", o.Algorithm)
	}
	switch o.Algorithm {
	case Standalone:
		tc := o.trainConfig()
		g := gan.TrainStandalone(ds, arch, tc, func(it int, m *GAN) { hook(it, m.G) })
		return &RunResult{Curve: curve, G: g.G, Iters: tc.Defaults().Iters}, nil

	case FLGAN:
		shards := o.shard(ds)
		cfg := flgan.Config{
			TrainConfig:    o.trainConfig(),
			CrashAt:        o.CrashAt,
			ActivePerRound: o.ActivePerRound,
		}
		if o.UseTCP {
			net := simnet.NewTCPNet()
			defer net.Close()
			cfg.Net = net
		}
		res, err := flgan.Train(shards, arch, cfg, flgan.EvalFunc(hook))
		if err != nil {
			return nil, err
		}
		return &RunResult{Curve: curve, Traffic: res.Traffic, Live: res.Live, G: res.Model.G, Iters: res.Iters}, nil

	case MDGAN:
		return runMDGAN(o.shard(ds), arch, o, &curve, hook)

	default:
		return nil, fmt.Errorf("mdgan: unknown algorithm %q", o.Algorithm)
	}
}

// runMDGAN wires the transport (loopback TCP and/or the chaos wrapper)
// and runs the core engine, folding fault and chaos accounting into the
// result.
func runMDGAN(shards []*Dataset, arch Arch, o Options, curve *Curve, hook func(int, *Generator)) (*RunResult, error) {
	cfg := core.Config{
		TrainConfig: o.trainConfig(), K: o.K, SwapEvery: o.SwapEvery,
		CrashAt: o.CrashAt, ActivePerRound: o.ActivePerRound, Engine: o.Engine,
	}
	var base simnet.Net
	if o.UseTCP {
		base = simnet.NewTCPNet()
	}
	var chaos *simnet.ChaosNet
	if o.Chaos != nil {
		if base == nil {
			base = simnet.NewChannelNet(0)
		}
		chaos = simnet.WrapChaos(base, *o.Chaos)
		cfg.Net = chaos
	} else {
		cfg.Net = base // nil selects the in-process default
	}
	if cfg.Net != nil {
		defer cfg.Net.Close()
	}
	res, err := core.Train(shards, arch, cfg, core.EvalFunc(hook))
	if err != nil {
		return nil, err
	}
	out := &RunResult{Curve: *curve, Traffic: res.Traffic, Live: res.Live,
		G: res.G, Iters: res.Iters, Faults: res.Faults}
	if chaos != nil {
		out.Chaos = chaos.Stats()
	}
	return out, nil
}
