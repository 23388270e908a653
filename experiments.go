package mdgan

import (
	"fmt"

	"mdgan/internal/complexity"
	"mdgan/internal/core"
)

// This file maps every table and figure of the paper's evaluation to a
// runnable experiment.
// Experiments accept a Scale so the same code drives both the quick
// benchmark suite (minutes on a laptop) and fuller runs.

// Scale sizes an experiment.
type Scale struct {
	TrainSamples int // |B|: total training samples
	Iters        int // I: generator updates
	EvalEvery    int // metric cadence
	EvalSamples  int // samples per metric evaluation (paper: 500)
	Workers      int // N (panels that don't sweep N)
	ImgSize      int // resolution for the CNN panels
	MLPHidden    int // hidden width of the scaled MLP
	// Pipeline runs every MD-GAN competitor through the pipelined
	// engine instead of the strict Algorithm 1 barrier (one-iteration
	// parameter staleness; mdgan-bench exposes it as -pipeline).
	Pipeline bool
}

// QuickScale finishes the whole suite in minutes on a laptop CPU.
var QuickScale = Scale{
	TrainSamples: 1500,
	Iters:        400,
	EvalEvery:    100,
	EvalSamples:  200,
	Workers:      10,
	ImgSize:      16,
	MLPHidden:    64,
}

// FullScale is closer to the paper's setting (hours on CPU).
var FullScale = Scale{
	TrainSamples: 20000,
	Iters:        5000,
	EvalEvery:    500,
	EvalSamples:  500,
	Workers:      10,
	ImgSize:      28,
	MLPHidden:    256,
}

// Fig3Panel identifies one panel of Figure 3.
type Fig3Panel string

// The three panels of Figure 3.
const (
	Fig3MNISTMLP Fig3Panel = "mnist-mlp"
	Fig3MNISTCNN Fig3Panel = "mnist-cnn"
	Fig3CIFARCNN Fig3Panel = "cifar-cnn"
)

// panelData builds the dataset/architecture pair for a Fig. 3 panel.
func panelData(panel Fig3Panel, sc Scale, seed int64) (*Dataset, *Dataset, Arch, error) {
	switch panel {
	case Fig3MNISTMLP:
		return SynthDigits(sc.TrainSamples, seed),
			SynthDigits(sc.EvalSamples*4, seed+1),
			MLPArch(sc.MLPHidden), nil
	case Fig3MNISTCNN:
		return SynthDigitsSized(sc.TrainSamples, sc.ImgSize, seed),
			SynthDigitsSized(sc.EvalSamples*4, sc.ImgSize, seed+1),
			CNNArch(1, sc.ImgSize, 10), nil
	case Fig3CIFARCNN:
		return SynthCIFARSized(sc.TrainSamples, sc.ImgSize, seed),
			SynthCIFARSized(sc.EvalSamples*4, sc.ImgSize, seed+1),
			CNNArch(3, sc.ImgSize, 10), nil
	default:
		return nil, nil, Arch{}, fmt.Errorf("mdgan: unknown Fig3 panel %q", panel)
	}
}

// RunFig3 reproduces one panel of Figure 3: score and FID trajectories
// for standalone (two batch sizes), FL-GAN (two batch sizes) and MD-GAN
// (k = 1 and k = ⌊ln N⌋).
func RunFig3(panel Fig3Panel, sc Scale) ([]Curve, error) {
	const seed = 1
	train, test, arch, err := panelData(panel, sc, seed)
	if err != nil {
		return nil, err
	}
	scorer := TrainScorer(test, seed)
	ev := NewEvaluator(scorer, test, sc.EvalSamples)

	b1, b2 := 10, 50
	base := Options{
		Workers: sc.Workers, Iters: sc.Iters, EvalEvery: sc.EvalEvery, Seed: seed,
	}
	kLog := core.DefaultK(sc.Workers)
	runs := []struct {
		name string
		o    Options
	}{
		{fmt.Sprintf("standalone b=%d", b1), with(base, func(o *Options) { o.Algorithm = Standalone; o.Batch = b1 })},
		{fmt.Sprintf("standalone b=%d", b2), with(base, func(o *Options) { o.Algorithm = Standalone; o.Batch = b2 })},
		{fmt.Sprintf("fl-gan b=%d", b1), with(base, func(o *Options) { o.Algorithm = FLGAN; o.Batch = b1 })},
		{fmt.Sprintf("fl-gan b=%d", b2), with(base, func(o *Options) { o.Algorithm = FLGAN; o.Batch = b2 })},
		{"md-gan k=1", with(base, func(o *Options) { o.Algorithm = MDGAN; o.Batch = b1; o.K = 1; o.Pipeline = sc.Pipeline })},
		{fmt.Sprintf("md-gan k=%d", kLog), with(base, func(o *Options) { o.Algorithm = MDGAN; o.Batch = b1; o.K = kLog; o.Pipeline = sc.Pipeline })},
	}
	curves := make([]Curve, 0, len(runs))
	for _, r := range runs {
		res, err := Run(train, arch, r.o, ev)
		if err != nil {
			return nil, fmt.Errorf("fig3 %s/%s: %w", panel, r.name, err)
		}
		res.Curve.Name = r.name
		curves = append(curves, res.Curve)
	}
	return curves, nil
}

func with(o Options, f func(*Options)) Options {
	f(&o)
	return o
}

// WorkerSweep is the canonical cluster-size axis: the per-K throughput
// benchmark (BenchmarkMDGANIterationK) and mdgan-bench's Figure 4
// sweep share it. The tail (100–500) is where the flat star's
// server ingress saturates and the tree topology starts paying off;
// the training-backed Figure 4 sweep caps itself at 50 workers in
// quick scale because it trains to convergence at every point.
var WorkerSweep = []int{1, 5, 10, 25, 50, 100, 250, 500}

// Fig4Row is one point of Figure 4: final score and FID for a worker
// count under one of the four variants.
type Fig4Row struct {
	N       int
	Variant string // "const-worker" or "const-server"
	Swap    bool
	Score   float64
	FID     float64
}

// RunFig4 reproduces Figure 4: MD-GAN (MLP) final metrics versus the
// number of workers, swap on/off, under constant per-worker workload
// (shard size fixed, blue curves) and constant server workload (total
// dataset fixed, batch shrinking with N, orange curves).
func RunFig4(ns []int, sc Scale) ([]Fig4Row, error) {
	const seed = 2
	test := SynthDigits(sc.EvalSamples*4, seed+1)
	scorer := TrainScorer(test, seed)
	ev := NewEvaluator(scorer, test, sc.EvalSamples)

	perWorker := sc.TrainSamples / sc.Workers // shard size of the reference config
	var rows []Fig4Row
	for _, variant := range []string{"const-worker", "const-server"} {
		for _, swap := range []bool{true, false} {
			for _, n := range ns {
				var train *Dataset
				b := 10
				switch variant {
				case "const-worker":
					// |B_n| fixed: dataset grows with N.
					train = SynthDigits(perWorker*n, seed)
				case "const-server":
					// |B| fixed: shards shrink; batch shrinks to keep
					// the server's k·b generation workload constant.
					train = SynthDigits(sc.TrainSamples, seed)
					b = 40 / n
					if b < 2 {
						b = 2
					}
				}
				o := Options{
					Algorithm: MDGAN, Workers: n, Batch: b,
					Iters: sc.Iters, EvalEvery: sc.Iters, Seed: seed,
					K: 1, Engine: Engine{Pipeline: sc.Pipeline},
				}
				if !swap {
					o.SwapEvery = -1
				}
				res, err := Run(train, MLPArch(sc.MLPHidden), o, ev)
				if err != nil {
					return nil, fmt.Errorf("fig4 N=%d %s swap=%v: %w", n, variant, swap, err)
				}
				s, f := res.Curve.Last()
				rows = append(rows, Fig4Row{N: n, Variant: variant, Swap: swap, Score: s, FID: f})
			}
		}
	}
	return rows, nil
}

// RunFig5 reproduces Figure 5: MD-GAN with a worker crashing every
// I/N iterations (all workers dead by the end) against the no-crash run
// and the standalone baselines.
func RunFig5(panel Fig3Panel, sc Scale) ([]Curve, error) {
	const seed = 3
	train, test, arch, err := panelData(panel, sc, seed)
	if err != nil {
		return nil, err
	}
	scorer := TrainScorer(test, seed)
	ev := NewEvaluator(scorer, test, sc.EvalSamples)

	n := sc.Workers
	kLog := core.DefaultK(n)
	// One crash every I/N iterations: worker i dies at (i+1)·I/N.
	crashes := make(map[int][]int, n)
	for i := 0; i < n; i++ {
		it := (i + 1) * sc.Iters / n
		if it < 1 {
			it = 1
		}
		crashes[it] = append(crashes[it], i)
	}
	base := Options{Workers: n, Batch: 10, Iters: sc.Iters, EvalEvery: sc.EvalEvery, Seed: seed, K: kLog}
	runs := []struct {
		name string
		o    Options
	}{
		{"md-gan (crashes)", with(base, func(o *Options) { o.Algorithm = MDGAN; o.CrashAt = crashes; o.Pipeline = sc.Pipeline })},
		{"md-gan (no crash)", with(base, func(o *Options) { o.Algorithm = MDGAN; o.Pipeline = sc.Pipeline })},
		{"standalone b=10", with(base, func(o *Options) { o.Algorithm = Standalone; o.Batch = 10 })},
		{"standalone b=50", with(base, func(o *Options) { o.Algorithm = Standalone; o.Batch = 50 })},
	}
	curves := make([]Curve, 0, len(runs))
	for _, r := range runs {
		res, err := Run(train, arch, r.o, ev)
		if err != nil {
			return nil, fmt.Errorf("fig5 %s: %w", r.name, err)
		}
		res.Curve.Name = r.name
		curves = append(curves, res.Curve)
	}
	return curves, nil
}

// RunFig6 reproduces Figure 6: the larger-dataset (CelebA stand-in)
// validation with per-competitor Adam settings, N = 5 workers, MD-GAN
// at a five-fold smaller batch (paper: 200 vs 40) so all competitors
// process the same number of images per generator update.
func RunFig6(sc Scale) ([]Curve, error) {
	const seed = 4
	train := SynthFaces(sc.TrainSamples, seed)
	test := SynthFaces(sc.EvalSamples*4, seed+1)
	scorer := TrainScorer(test, seed)
	ev := NewEvaluator(scorer, test, sc.EvalSamples)
	arch := FacesArch()
	if sc.ImgSize < 32 {
		arch = CNNArch(3, 32, 0) // lighter generator for quick runs
	}

	bBig, bSmall := 50, 10 // paper: 200 and 40, same 5× ratio
	runs := []struct {
		name string
		o    Options
	}{
		// Paper §V-B4: standalone/FL-GAN use lr 3e-3 (G) / 2e-3 (D),
		// β1 = 0.5, β2 = 0.999.
		{"standalone", Options{Algorithm: Standalone, Batch: bBig, Iters: sc.Iters,
			EvalEvery: sc.EvalEvery, Seed: seed, LRG: 3e-3, LRD: 2e-3, Beta1: 0.5, Beta2: 0.999}},
		{"fl-gan N=5", Options{Algorithm: FLGAN, Workers: 5, Batch: bBig, Iters: sc.Iters,
			EvalEvery: sc.EvalEvery, Seed: seed, LRG: 3e-3, LRD: 2e-3, Beta1: 0.5, Beta2: 0.999}},
		// MD-GAN uses lr 1e-3 (G) / 4e-3 (D), β1 = 0, β2 = 0.9 (β1 is
		// encoded as a tiny positive value since 0 selects the default).
		{"md-gan N=5", Options{Algorithm: MDGAN, Workers: 5, Batch: bSmall, Iters: sc.Iters,
			EvalEvery: sc.EvalEvery, Seed: seed, LRG: 1e-3, LRD: 4e-3, Beta1: 1e-9, Beta2: 0.9, K: 1,
			Engine: Engine{Pipeline: sc.Pipeline}}},
	}
	curves := make([]Curve, 0, len(runs))
	for _, r := range runs {
		res, err := Run(train, arch, r.o, ev)
		if err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", r.name, err)
		}
		res.Curve.Name = r.name
		curves = append(curves, res.Curve)
	}
	return curves, nil
}

// ComplexityParams re-exports the analytic model inputs.
type ComplexityParams = complexity.Params

// TableII re-exports the Table II evaluation.
type TableII = complexity.TableII

// TableIVRow re-exports one Table IV column.
type TableIVRow = complexity.TableIVRow

// Fig2Series re-exports the Figure 2 sweep.
type Fig2Series = complexity.Fig2Series

// PaperMNISTComplexity returns the paper's MNIST deployment constants.
func PaperMNISTComplexity() ComplexityParams { return complexity.PaperMNISTParams() }

// PaperCIFARComplexity returns the paper's CIFAR10 deployment constants.
func PaperCIFARComplexity() ComplexityParams { return complexity.PaperCIFARParams() }

// ComputeTableII evaluates Table II.
func ComputeTableII(p ComplexityParams) TableII { return complexity.ComputeTableII(p) }

// ComputeTableIV evaluates Table IV.
func ComputeTableIV(p ComplexityParams, batches []int) []TableIVRow {
	return complexity.ComputeTableIV(p, batches)
}

// ComputeFig2 evaluates the Figure 2 ingress-traffic sweep.
func ComputeFig2(p ComplexityParams, batches []int) Fig2Series {
	return complexity.ComputeFig2(p, batches)
}

// CrossoverBatch returns the MD-GAN/FL-GAN worker-traffic crossover.
func CrossoverBatch(p ComplexityParams) float64 { return complexity.CrossoverBatch(p) }

// WorkerReduction returns the Table II headline factor
// ((|w|+|θ|)/|θ| ≈ 2).
func WorkerReduction(p ComplexityParams) float64 { return complexity.WorkerReduction(p) }

// BytesToMB converts bytes to MiB as the paper's tables report.
func BytesToMB(b float64) float64 { return complexity.MB(b) }

// ArchParams returns (|w|, |θ|) for an architecture — feeding measured
// parameter counts into the complexity models.
func ArchParams(a Arch, seed int64) (w, theta int) {
	m := a.NewGAN(seed, 0, 1)
	return m.G.NumParams(), m.D.NumParams()
}
