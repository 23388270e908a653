package mdgan_test

// Ablation benchmarks for the paper's design choices: the
// discriminator swap (§IV-C1), the batch-diversity parameter k
// (§IV-B4), the synchronous barrier vs the §VII.1 asynchronous mode,
// and the §VII.2 feedback-compression extension. Each sub-benchmark
// trains the same small MD-GAN configuration with one knob changed and
// prints the final FID, so `go test -bench=Ablation` doubles as an
// ablation study.

import (
	"fmt"
	"testing"

	"mdgan"
)

// ablationRun trains MD-GAN on digits with the given mutation and
// returns the final FID.
func ablationRun(b *testing.B, mutate func(*mdgan.Options)) float64 {
	b.Helper()
	train := mdgan.SynthDigits(1000, 11)
	test := mdgan.SynthDigits(600, 12)
	scorer := mdgan.TrainScorer(test, 11)
	ev := mdgan.NewEvaluator(scorer, test, 150)
	o := mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: 8, Batch: 10,
		Iters: 300, EvalEvery: 300, Seed: 13, K: 2,
	}
	mutate(&o)
	res, err := mdgan.Run(train, mdgan.MLPArch(48), o, ev)
	if err != nil {
		b.Fatal(err)
	}
	_, fid := res.Curve.Last()
	return fid
}

// BenchmarkAblationSwap compares swap-enabled against swap-disabled
// training (the Fig. 4 dotted-vs-plain comparison).
func BenchmarkAblationSwap(b *testing.B) {
	for _, c := range []struct {
		name string
		swap int
	}{
		{"swap-on", 1},
		{"swap-off", -1},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fid := ablationRun(b, func(o *mdgan.Options) { o.SwapEvery = c.swap })
				printEach("abl-swap-"+c.name, fmt.Sprintf("ablation %s: final FID %.1f\n", c.name, fid))
			}
		})
	}
}

// BenchmarkAblationK sweeps the batch-diversity parameter (§IV-B4:
// "the more the data diversity sent by the server to workers, the
// higher the generator scores").
func BenchmarkAblationK(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fid := ablationRun(b, func(o *mdgan.Options) { o.K = k })
				printEach(fmt.Sprintf("abl-k-%d", k), fmt.Sprintf("ablation k=%d: final FID %.1f\n", k, fid))
			}
		})
	}
}

// BenchmarkAblationAsync compares the synchronous Algorithm 1 with the
// §VII.1 asynchronous mode at an equal number of worker feedbacks.
func BenchmarkAblationAsync(b *testing.B) {
	for _, c := range []struct {
		name  string
		async bool
	}{
		{"sync", false},
		{"async", true},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fid := ablationRun(b, func(o *mdgan.Options) {
					o.Async = c.async
					if c.async {
						// One async update consumes a single feedback;
						// equalise the total feedback count.
						o.Iters *= o.Workers
						o.EvalEvery = o.Iters
					}
				})
				printEach("abl-async-"+c.name, fmt.Sprintf("ablation %s: final FID %.1f\n", c.name, fid))
			}
		})
	}
}

// BenchmarkAblationNonIID studies the paper's i.i.d. assumption
// (§III-a) by sweeping label skew, with the discriminator swap on and
// off: the swap is the mechanism expected to compensate for skewed
// shards, since each discriminator tours multiple workers' data.
func BenchmarkAblationNonIID(b *testing.B) {
	for _, c := range []struct {
		name string
		skew float64
		swap int
	}{
		{"iid-swap", 0, 1},
		{"skewed-swap", 1, 1},
		{"skewed-noswap", 1, -1},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fid := ablationRun(b, func(o *mdgan.Options) {
					o.NonIIDSkew = c.skew
					o.SwapEvery = c.swap
				})
				printEach("abl-noniid-"+c.name, fmt.Sprintf("ablation %s: final FID %.1f\n", c.name, fid))
			}
		})
	}
}

// BenchmarkAblationByzantine compares aggregation rules under a
// one-third Byzantine minority (§VII.3).
func BenchmarkAblationByzantine(b *testing.B) {
	for _, c := range []struct {
		name string
		agg  mdgan.Aggregation
	}{
		{"mean-under-attack", mdgan.AggMean},
		{"median-under-attack", mdgan.AggMedian},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fid := ablationRun(b, func(o *mdgan.Options) {
					o.K = 1 // all workers share a batch: aggregation applies across all
					o.Byzantine = map[int]mdgan.ByzantineMode{0: mdgan.ByzantineInvert, 3: mdgan.ByzantineScale}
					o.Aggregate = c.agg
				})
				printEach("abl-byz-"+c.name, fmt.Sprintf("ablation %s: final FID %.1f\n", c.name, fid))
			}
		})
	}
}

// BenchmarkAblationWorkers sweeps the cluster size K with everything
// else pinned, the ablation that loads internal/parallel hardest:
// each worker trains its own discriminator concurrently, and final FID
// tracks how batch diversity k = ⌊ln K⌋ and shard thinning interact.
func BenchmarkAblationWorkers(b *testing.B) {
	for _, k := range workerSweep {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fid := ablationRun(b, func(o *mdgan.Options) {
					o.Workers = k
					o.K = 0 // paper default ⌊ln K⌋
				})
				printEach(fmt.Sprintf("abl-workers-%d", k), fmt.Sprintf("ablation K=%d workers: final FID %.1f\n", k, fid))
			}
		})
	}
}

// BenchmarkAblationGenLoss compares the paper's log(1−D) generator
// objective against the non-saturating heuristic.
func BenchmarkAblationGenLoss(b *testing.B) {
	for _, c := range []struct {
		name  string
		paper bool
	}{
		{"non-saturating", false},
		{"paper-log1minusD", true},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fid := ablationRun(b, func(o *mdgan.Options) { o.PaperLoss = c.paper })
				printEach("abl-loss-"+c.name, fmt.Sprintf("ablation %s: final FID %.1f\n", c.name, fid))
			}
		})
	}
}
