package mdgan_test

// One benchmark per table and figure of the paper's evaluation section
// (experiments.go maps each artifact to its experiment), plus
// micro-benchmarks of the kernels the system is built on. The
// experiment benchmarks print their series once, so
// `go test -bench=. -benchmem` regenerates the same rows the paper
// reports; absolute values come from the synthetic substitutes, shapes
// are the reproduction target.

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"mdgan"
)

// benchScale trims the quick scale further so the full -bench=. suite
// stays in the minutes range. cmd/mdgan-bench runs bigger scales.
var benchScale = mdgan.Scale{
	TrainSamples: 1000,
	Iters:        200,
	EvalEvery:    100,
	EvalSamples:  150,
	Workers:      8,
	ImgSize:      16,
	MLPHidden:    48,
}

// workerSweep aliases the canonical cluster-size axis shared with
// mdgan-bench's Figure 4 sweep.
var workerSweep = mdgan.WorkerSweep

// figScale returns benchScale with the worker count overridden by the
// MDGAN_BENCH_WORKERS env var, so the training-backed figure sweeps
// (Fig3/Fig5/Fig6) re-run at any cluster size without recompiling:
//
//	MDGAN_BENCH_WORKERS=25 go test -bench='Fig3|Fig5'
func figScale() mdgan.Scale {
	sc := benchScale
	if v := os.Getenv("MDGAN_BENCH_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			sc.Workers = n
		}
	}
	return sc
}

var printOnce sync.Map

func printEach(key, s string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Print(s)
	}
}

// BenchmarkTableII regenerates the computation/memory complexity table.
func BenchmarkTableII(b *testing.B) {
	p := mdgan.PaperMNISTComplexity()
	p.B, p.I = 10, 50000
	var t mdgan.TableII
	for i := 0; i < b.N; i++ {
		t = mdgan.ComputeTableII(p)
	}
	_ = t
	printEach("table2", mdgan.FormatTableII("MNIST MLP", p)+
		mdgan.FormatTableII("CIFAR10 CNN", mdgan.PaperCIFARComplexity()))
}

// BenchmarkTableIII regenerates the symbolic communication table.
func BenchmarkTableIII(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = mdgan.TableIIIFormulas()
	}
	printEach("table3", s)
}

// BenchmarkTableIV regenerates the instantiated CIFAR10 costs.
func BenchmarkTableIV(b *testing.B) {
	p := mdgan.PaperCIFARComplexity()
	var rows []mdgan.TableIVRow
	for i := 0; i < b.N; i++ {
		rows = mdgan.ComputeTableIV(p, []int{10, 100})
	}
	printEach("table4", mdgan.FormatTableIV(rows))
}

// BenchmarkFig2 regenerates the ingress-traffic sweep of Figure 2,
// parameterised by cluster size: the server ingress lines scale with N,
// so each worker count is its own sub-benchmark and series.
func BenchmarkFig2(b *testing.B) {
	batches := []int{1, 10, 100, 1000, 10000}
	for _, n := range workerSweep {
		b.Run(fmt.Sprintf("K=%d", n), func(b *testing.B) {
			mnist := mdgan.PaperMNISTComplexity()
			cifar := mdgan.PaperCIFARComplexity()
			mnist.N, cifar.N = n, n
			var s mdgan.Fig2Series
			for i := 0; i < b.N; i++ {
				s = mdgan.ComputeFig2(mnist, batches)
			}
			printEach(fmt.Sprintf("fig2-%d", n),
				mdgan.FormatFig2(fmt.Sprintf("MNIST N=%d", n), mnist, s)+
					mdgan.FormatFig2(fmt.Sprintf("CIFAR10 N=%d", n), cifar, mdgan.ComputeFig2(cifar, batches)))
		})
	}
}

// BenchmarkFig3 regenerates the score/FID trajectories of Figure 3 —
// one sub-benchmark per panel (MNIST-MLP, MNIST-CNN, CIFAR10-CNN), six
// competitors each.
func BenchmarkFig3(b *testing.B) {
	for _, panel := range []mdgan.Fig3Panel{mdgan.Fig3MNISTMLP, mdgan.Fig3MNISTCNN, mdgan.Fig3CIFARCNN} {
		b.Run(string(panel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				curves, err := mdgan.RunFig3(panel, figScale())
				if err != nil {
					b.Fatal(err)
				}
				printEach("fig3-"+string(panel),
					mdgan.FormatCurves(fmt.Sprintf("Figure 3 / %s", panel), curves))
			}
		})
	}
}

// BenchmarkFig4 regenerates the scalability sweep of Figure 4 (the
// training runs behind it are where K simulated workers exercise the
// scheduler hardest). It trains to convergence at every point, so the
// sweep is capped at 50 workers — the 100–500 tail of WorkerSweep is
// covered by the single-iteration BenchmarkMDGANIterationK rows, not
// by full training runs.
func BenchmarkFig4(b *testing.B) {
	ns := fig4Sweep(workerSweep)
	for i := 0; i < b.N; i++ {
		rows, err := mdgan.RunFig4(ns, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		printEach("fig4", mdgan.FormatFig4(rows))
	}
}

// fig4Sweep caps the training-backed Figure 4 axis at 50 workers.
func fig4Sweep(sweep []int) []int {
	var out []int
	for _, n := range sweep {
		if n <= 50 {
			out = append(out, n)
		}
	}
	return out
}

// BenchmarkFig5 regenerates the fault-tolerance curves of Figure 5.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := mdgan.RunFig5(mdgan.Fig3MNISTMLP, figScale())
		if err != nil {
			b.Fatal(err)
		}
		printEach("fig5", mdgan.FormatCurves("Figure 5: crashes every I/N iterations", curves))
	}
}

// BenchmarkFig6 regenerates the larger-dataset validation of Figure 6.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := mdgan.RunFig6(figScale())
		if err != nil {
			b.Fatal(err)
		}
		printEach("fig6", mdgan.FormatCurves("Figure 6: faces (CelebA stand-in)", curves))
	}
}

// --- kernel micro-benchmarks ---------------------------------------

// BenchmarkMDGANIteration measures one full synchronous global
// iteration (generate, distribute, L disc steps on 8 workers, feedback,
// merge, Adam) on the scaled MLP.
func BenchmarkMDGANIteration(b *testing.B) {
	train := mdgan.SynthDigits(800, 1)
	o := mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: 8, Batch: 10, Iters: b.N, Seed: 2, K: 2,
	}
	b.ResetTimer()
	if _, err := mdgan.Run(train, mdgan.MLPArch(48), o, nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMDGANIterationPipelined is BenchmarkMDGANIteration under the
// pipelined engine: the server generates round t+1 while the workers
// compute round t. On a single core this measures pure stage-reordering
// overhead (parity with strict is the bar); the overlap win needs
// enough cores for the workers to actually run concurrently.
func BenchmarkMDGANIterationPipelined(b *testing.B) {
	train := mdgan.SynthDigits(800, 1)
	o := mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: 8, Batch: 10, Iters: b.N, Seed: 2, K: 2,
		Engine: mdgan.Engine{Pipeline: true},
	}
	b.ResetTimer()
	if _, err := mdgan.Run(train, mdgan.MLPArch(48), o, nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMDGANIterationK sweeps the synchronous global iteration over
// cluster sizes K=1..50 (the Fig. 2-style axis): every simulated worker
// drives its own conv/matmul kernels, so aggregate throughput measures
// how well worker- and kernel-level parallelism compose in
// internal/parallel. worker-steps/sec is the aggregate rate of
// per-worker discriminator iterations.
// Each K runs twice: the paper's flat star, and the depth-2 aggregation
// tree that bounds server ingress by its fan-in, so the flat-vs-tree
// crossover is measurable on the same axis.
func BenchmarkMDGANIterationK(b *testing.B) {
	for _, k := range workerSweep {
		for _, topo := range []string{"", "tree:2"} {
			name := fmt.Sprintf("K=%d", k)
			if topo != "" {
				name += "/topology=" + topo
			}
			b.Run(name, func(b *testing.B) {
				train := mdgan.SynthDigits(1600, 1)
				tree, err := mdgan.ParseTopology(topo, 0)
				if err != nil {
					b.Fatal(err)
				}
				o := mdgan.Options{
					Algorithm: mdgan.MDGAN, Workers: k, Batch: 10, Iters: b.N, Seed: 2,
					Engine: mdgan.Engine{Topology: tree},
				}
				b.ResetTimer()
				if _, err := mdgan.Run(train, mdgan.MLPArch(48), o, nil); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "worker-steps/sec")
			})
		}
	}
}

// BenchmarkFLGANRound measures FL-GAN at the same per-iteration scale.
func BenchmarkFLGANRound(b *testing.B) {
	train := mdgan.SynthDigits(800, 1)
	o := mdgan.Options{
		Algorithm: mdgan.FLGAN, Workers: 8, Batch: 10, Iters: b.N, Seed: 2,
	}
	b.ResetTimer()
	if _, err := mdgan.Run(train, mdgan.MLPArch(48), o, nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStandaloneIteration is the single-node reference.
func BenchmarkStandaloneIteration(b *testing.B) {
	train := mdgan.SynthDigits(800, 1)
	o := mdgan.Options{
		Algorithm: mdgan.Standalone, Batch: 10, Iters: b.N, Seed: 2,
	}
	b.ResetTimer()
	if _, err := mdgan.Run(train, mdgan.MLPArch(48), o, nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGeneratorForward measures raw generator throughput: a
// training-mode Generate of 32 samples, and the forward mdgan-serve runs
// for a bulk request — MLPArch(128), batch 64, inference mode, one
// latent batch reused so only the forward is timed.
func BenchmarkGeneratorForward(b *testing.B) {
	g := mdgan.MLPArch(128).NewGAN(1, 0, 1)
	rng := rand.New(rand.NewSource(2))
	b.Run("train/b=32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.G.Generate(32, rng, true)
		}
	})
	b.Run("serve/b=64", func(b *testing.B) {
		z, labels := g.G.SampleZ(64, rng)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.G.Forward(z, labels, false)
		}
	})
}

// BenchmarkScorerFID measures one FID evaluation (features + cov +
// matrix sqrt) at the paper's 500-sample setting.
func BenchmarkScorerFID(b *testing.B) {
	test := mdgan.SynthDigits(1200, 3)
	scorer := mdgan.TrainScorer(test, 3)
	gen := mdgan.SynthDigits(500, 4)
	real := mdgan.SynthDigits(500, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scorer.FID(real.X, gen.X); err != nil {
			b.Fatal(err)
		}
	}
}
