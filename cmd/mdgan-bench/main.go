// Command mdgan-bench regenerates every table and figure of the
// paper's evaluation section (experiments.go in the repo root is the index)
// and writes the series to stdout and, optionally, CSV files.
//
//	mdgan-bench                       # quick scale, all experiments
//	mdgan-bench -only fig3            # one experiment
//	mdgan-bench -scale full           # paper-closer scale (hours on CPU)
//	mdgan-bench -csv results/         # also write CSV series
//	mdgan-bench -benchjson BENCH.json # perf-trajectory micro-benchmarks
//	mdgan-bench -list-kernels         # GEMM kernel tiers this host can run
//	mdgan-bench -benchdiff NEW.json -baseline OLD.json
//	                                  # advisory diff of two -benchjson files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mdgan"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// benchRow is one entry of the -benchjson report.
type benchRow struct {
	Name string `json:"name"`
	// Dtype records the compiled tensor element type the row was
	// measured under ("float64" or "float32"); rows of both dtypes
	// coexist in one report (verify.sh runs the default and the
	// -tags f32 builds back to back into the same file).
	Dtype       string  `json:"dtype"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// WorkerStepsPerSec is the aggregate per-worker iteration rate of
	// the cluster-size sweep rows (K workers each completing 1/ns_per_op
	// global iterations per second): the headline number for how worker-
	// and kernel-level parallelism compose.
	WorkerStepsPerSec float64 `json:"worker_steps_per_sec,omitempty"`
	// Topology tags the cluster-size sweep rows measured under a
	// non-flat aggregation overlay; SpeedupVsFlat is that row's
	// flat-ns/tree-ns ratio at the same K (> 1 means the tree won).
	Topology      string  `json:"topology,omitempty"`
	SpeedupVsFlat float64 `json:"speedup_vs_flat,omitempty"`
	// GFlops, Kernel and Lanes annotate the GEMM micro-benchmark rows:
	// the achieved GFLOP/s at an MD-GAN layer shape, which micro-kernel
	// produced it ("avx512", "avx2+fma", "generic", "generic (noasm)"),
	// and that kernel's SIMD width in elements — the kernel-level
	// evidence behind the iteration-level rows. The bare-named row is
	// measured under the dispatched (best) kernel so the trajectory
	// stays comparable across PRs; rows suffixed /kernel=<name> pin the
	// other tiers the host can force.
	GFlops float64 `json:"gflops,omitempty"`
	Kernel string  `json:"kernel,omitempty"`
	Lanes  int     `json:"lanes,omitempty"`
	// Fault-summary annotations of the chaos row: the fault ledger of a
	// short seeded-chaos run under a round deadline (ns_per_op is its
	// wall time per applied iteration, faults included).
	Timeouts  int   `json:"timeouts,omitempty"`
	Rejoins   int   `json:"rejoins,omitempty"`
	Demotions int   `json:"demotions,omitempty"`
	Reparents int   `json:"reparents,omitempty"`
	Injected  int64 `json:"injected_faults,omitempty"`
	// Serving-tier annotations (ServeThroughput/ServeLatency rows): the
	// concurrent-load benchmark's aggregate sampling rate, request
	// latency percentiles, and the mean fused-batch size the coalescer
	// achieved under that load.
	SamplesPerSec float64 `json:"samples_per_sec,omitempty"`
	P50Ms         float64 `json:"latency_p50_ms,omitempty"`
	P99Ms         float64 `json:"latency_p99_ms,omitempty"`
	AvgBatch      float64 `json:"avg_batch,omitempty"`
	// Free-rider summary annotations (FreeRiderSummary/<variant> rows):
	// final classifier scores of a short non-IID run attacked by 2/8
	// free-riders with the defense off and on, the attack-free baseline
	// score of the same configuration, and the defense's demotion split
	// (free-riders vs honest workers removed). ns_per_op is the
	// defense-on run's wall cost per iteration, scoring included.
	ScoreBaseline     float64 `json:"score_baseline,omitempty"`
	ScoreDefenseOff   float64 `json:"score_defense_off,omitempty"`
	ScoreDefenseOn    float64 `json:"score_defense_on,omitempty"`
	FreeRidersDemoted int     `json:"free_riders_demoted,omitempty"`
	HonestDemoted     int     `json:"honest_demoted,omitempty"`
}

// workerSweep aliases the canonical cluster-size axis shared with the
// go-test benchmarks, so the JSON row names cannot drift from them.
var workerSweep = mdgan.WorkerSweep

// benchReport is the schema of BENCH_<n>.json: the per-PR performance
// trajectory of the training hot path.
type benchReport struct {
	Date       string     `json:"date"`
	GoVersion  string     `json:"go_version"`
	GoMaxProcs int        `json:"gomaxprocs"`
	Benchmarks []benchRow `json:"benchmarks"`
}

// writeBenchJSON runs the hot-path micro-benchmarks in-process (the
// same bodies as the go-test benchmarks of the repo root) and records
// ns/op and allocs/op. topoSpec/fanin select the aggregation overlay of
// the topology-tagged cluster-size rows ("flat" suppresses them).
func writeBenchJSON(path, topoSpec string, fanin int) {
	run := func(name string, fn func(b *testing.B)) benchRow {
		r := testing.Benchmark(fn)
		log.Printf("%s [%s]: %v ns/op, %d B/op, %d allocs/op", name, tensor.DTypeName, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
		return benchRow{
			Name:        name,
			Dtype:       tensor.DTypeName,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	// The strict/pipelined pair shares one configuration (K=8 workers)
	// so the two rows isolate the engine driver: on a single core the
	// pipelined row measures pure reordering overhead (parity is the
	// bar — the overlap win needs cores for the workers to actually
	// compute while the server generates).
	iterBench := func(pipeline bool) func(b *testing.B) {
		return func(b *testing.B) {
			train := mdgan.SynthDigits(800, 1)
			o := mdgan.Options{
				Algorithm: mdgan.MDGAN, Workers: 8, Batch: 10, Iters: b.N, Seed: 2, K: 2,
				Pipeline: pipeline,
			}
			b.ResetTimer()
			if _, err := mdgan.Run(train, mdgan.MLPArch(48), o, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	rows := []benchRow{
		run("BenchmarkMDGANIteration", iterBench(false)),
		run("BenchmarkMDGANIteration/pipelined", iterBench(true)),
		run("BenchmarkGeneratorForward", func(b *testing.B) {
			g := mdgan.MLPArch(128).NewGAN(1, 0, 1)
			rng := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.G.Generate(32, rng, true)
			}
		}),
		run("BenchmarkTableII", func(b *testing.B) {
			p := mdgan.PaperMNISTComplexity()
			p.B, p.I = 10, 50000
			var t mdgan.TableII
			for i := 0; i < b.N; i++ {
				t = mdgan.ComputeTableII(p)
			}
			_ = t
		}),
	}
	// Cluster-size sweep (the Fig. 2-style axis): one synchronous global
	// iteration at K simulated workers, all driving their kernels
	// through internal/parallel concurrently. Row names match
	// the go-test sub-benchmarks (BenchmarkMDGANIterationK/K=…), which
	// share this body and mdgan.WorkerSweep. Each K is measured under
	// the flat star AND under the -topology overlay (default tree:2),
	// tree rows carrying the flat-vs-tree speedup at the same K.
	iterKBench := func(k int, topoSpec string) func(b *testing.B) {
		return func(b *testing.B) {
			train := mdgan.SynthDigits(1600, 1)
			o := mdgan.Options{
				Algorithm: mdgan.MDGAN, Workers: k, Batch: 10, Iters: b.N, Seed: 2,
				Topology: topoSpec, Fanin: fanin,
			}
			b.ResetTimer()
			if _, err := mdgan.Run(train, mdgan.MLPArch(48), o, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	var lastFlat, lastTree benchRow
	for _, k := range workerSweep {
		flat := run(fmt.Sprintf("BenchmarkMDGANIterationK/K=%d", k), iterKBench(k, ""))
		flat.WorkerStepsPerSec = float64(k) * 1e9 / flat.NsPerOp
		rows = append(rows, flat)
		lastFlat = flat
		if topoSpec == "" || topoSpec == "flat" {
			continue
		}
		tree := run(fmt.Sprintf("BenchmarkMDGANIterationK/K=%d/topology=%s", k, topoSpec),
			iterKBench(k, topoSpec))
		tree.WorkerStepsPerSec = float64(k) * 1e9 / tree.NsPerOp
		tree.Topology = topoSpec
		tree.SpeedupVsFlat = flat.NsPerOp / tree.NsPerOp
		rows = append(rows, tree)
		lastTree = tree
	}
	// The headline comparison row: flat vs the overlay at the sweep's
	// largest K, where the server-ingress bound matters most.
	if lastTree.Name != "" {
		maxK := workerSweep[len(workerSweep)-1]
		log.Printf("TopologyFlatVsTree/K=%d [%s]: flat %.0f ns/op vs %s %.0f ns/op (speedup %.2fx)",
			maxK, tensor.DTypeName, lastFlat.NsPerOp, topoSpec, lastTree.NsPerOp, lastFlat.NsPerOp/lastTree.NsPerOp)
		rows = append(rows, benchRow{
			Name:          fmt.Sprintf("TopologyFlatVsTree/K=%d", maxK),
			Dtype:         tensor.DTypeName,
			Iters:         lastTree.Iters,
			NsPerOp:       lastTree.NsPerOp,
			Topology:      topoSpec,
			SpeedupVsFlat: lastFlat.NsPerOp / lastTree.NsPerOp,
		})
	}
	// GEMM micro-benchmarks at MD-GAN layer shapes (names match the
	// go-test sub-benchmarks in internal/tensor): the kernel-level
	// GFLOP/s behind the iteration rows. Each shape runs once per
	// forcible kernel tier — the row under the dispatched (best) kernel
	// keeps the bare name so the trajectory stays comparable across
	// PRs, the others carry a /kernel=<name> suffix.
	gemmShapes := [][3]int{
		{64, 800, 6272}, // conv2 forward: (OutC, C·KH·KW)·(ckk, N·oHW)
		{32, 128, 784},  // MLP generator output layer at batch 32
		{512, 512, 512}, // square reference point
	}
	dispatched := tensor.GemmKernel()
	for _, sh := range gemmShapes {
		m, k, n := sh[0], sh[1], sh[2]
		rng := rand.New(rand.NewSource(2))
		mk := func(r, c int) *tensor.Tensor {
			t := tensor.New(r, c)
			for i := range t.Data {
				t.Data[i] = tensor.Elem(rng.NormFloat64())
			}
			return t
		}
		x, y, out := mk(m, k), mk(k, n), tensor.New(m, n)
		for _, force := range tensor.GemmKernels() {
			if !tensor.ForceGemmKernel(force) {
				continue
			}
			name := fmt.Sprintf("BenchmarkGEMM/%dx%dx%d", m, k, n)
			if tensor.GemmKernel() != dispatched {
				name += "/kernel=" + force
			}
			row := run(name, func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tensor.MatMulInto(out, x, y)
				}
			})
			row.GFlops = 2 * float64(m) * float64(k) * float64(n) / row.NsPerOp
			row.Kernel = tensor.GemmKernel()
			row.Lanes = tensor.GemmLanes()
			log.Printf("%s [%s]: %.2f GFLOP/s (%s kernel, %d lanes)", row.Name, tensor.DTypeName, row.GFlops, row.Kernel, row.Lanes)
			rows = append(rows, row)
		}
	}
	// Restore the dispatched kernel for the remaining benchmark rows.
	for _, force := range tensor.GemmKernels() {
		if tensor.ForceGemmKernel(force) && tensor.GemmKernel() == dispatched {
			break
		}
	}
	// Table III W→W traffic delta of the FP32-swap default: one short
	// swap-heavy run per precision, recorded as bytes per swap message
	// (the measured |θ| payload — fp32 is ~half of native on the
	// float64 build, identical under -tags f32).
	for _, prec := range []struct {
		name string
		p    mdgan.SwapPrecision
	}{{"fp32", mdgan.SwapFP32}, {"native", mdgan.SwapNative}} {
		train := mdgan.SynthDigits(320, 1)
		o := mdgan.Options{
			Algorithm: mdgan.MDGAN, Workers: 4, Batch: 10, Iters: 8,
			Seed: 2, K: 2, SwapEvery: 1, SwapPrec: prec.p,
		}
		res, err := mdgan.Run(train, mdgan.MLPArch(48), o, nil)
		if err != nil {
			log.Fatal(err)
		}
		msgs := res.Traffic.Msgs[simnet.WtoW]
		if msgs == 0 {
			log.Fatal("swap-traffic probe produced no W→W messages")
		}
		log.Printf("SwapTrafficPerMessage/%s [%s]: %d bytes over %d swaps",
			prec.name, tensor.DTypeName, res.Traffic.Bytes[simnet.WtoW]/msgs, msgs)
		rows = append(rows, benchRow{
			Name:       "SwapTrafficPerMessage/" + prec.name,
			Dtype:      tensor.DTypeName,
			Iters:      int(msgs),
			BytesPerOp: res.Traffic.Bytes[simnet.WtoW] / msgs,
		})
	}
	// Fault summary: a short seeded-chaos run under a round deadline,
	// on a depth-2 aggregation tree so the mid-tree fault paths
	// (aggregator suspected → leaves reparented) are part of what the
	// row survives. It records the wall cost per applied iteration with
	// the suspect/rejoin machinery active (drops cost one RoundTimeout
	// each) and the fault ledger — the robustness counterpart of the
	// fault-free iteration rows above.
	{
		train := mdgan.SynthDigits(640, 1)
		o := mdgan.Options{
			Algorithm: mdgan.MDGAN, Workers: 9, Batch: 10, Iters: 60, Seed: 2, K: 2,
			Topology:     "tree:2",
			RoundTimeout: 150 * time.Millisecond, SuspectAfter: 8,
			Chaos: &mdgan.ChaosConfig{
				Seed: 7, Drop: 0.004, Delay: 0.02, MaxDelay: 2 * time.Millisecond,
				Duplicate:    0.01,
				ProtectTypes: map[string]bool{"stop": true, "swap": true},
			},
		}
		start := time.Now()
		res, err := mdgan.Run(train, mdgan.MLPArch(48), o, nil)
		if err != nil {
			log.Fatal(err)
		}
		injected := res.Chaos.Dropped + res.Chaos.Corrupted + res.Chaos.Delayed + res.Chaos.Duplicated
		log.Printf("FaultChaosSummary [%s]: %d iters, timeouts=%d rejoins=%d demotions=%d reparents=%d injected=%d",
			tensor.DTypeName, res.Iters, res.Faults.Timeouts, res.Faults.Rejoins, res.Faults.Demotions, res.Faults.Reparents, injected)
		rows = append(rows, benchRow{
			Name:      "FaultChaosSummary",
			Dtype:     tensor.DTypeName,
			Iters:     res.Iters,
			NsPerOp:   float64(time.Since(start).Nanoseconds()) / float64(res.Iters),
			Topology:  "tree:2",
			Timeouts:  res.Faults.Timeouts,
			Rejoins:   res.Faults.Rejoins,
			Demotions: res.Faults.Demotions,
			Reparents: res.Faults.Reparents,
			Injected:  injected,
		})
	}
	rows = append(rows, freeRiderBenchRows()...)
	rows = append(rows, serveBenchRows()...)
	// Merge with an existing report so the two dtype builds accumulate
	// into one file: rows measured under the other dtype are kept, rows
	// of this dtype are replaced.
	if prev, err := os.ReadFile(path); err == nil {
		var old benchReport
		if err := json.Unmarshal(prev, &old); err == nil {
			var kept []benchRow
			for _, r := range old.Benchmarks {
				if r.Dtype != tensor.DTypeName && r.Dtype != "" {
					kept = append(kept, r)
				}
			}
			rows = append(kept, rows...)
		}
	}
	report := benchReport{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Benchmarks: rows,
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%s rows)", path, tensor.DTypeName)
}

// freeRiderBenchRows measures the free-rider arms race end to end: for
// each attack variant, a short non-IID digit run with 2/8 workers
// free-riding, once with the defense off and once with it on, against
// one shared attack-free baseline. The rows record the final
// classifier scores of all three runs and the defense's demotion split
// — the defended score should sit measurably closer to the baseline
// than the undefended one, with only free-riders removed.
func freeRiderBenchRows() []benchRow {
	train := mdgan.SynthDigits(640, 1)
	test := mdgan.SynthDigits(800, 2)
	scorer := mdgan.TrainScorer(test, 3)
	ev := mdgan.NewEvaluator(scorer, test, 500)
	const iters = 60
	run := func(fr map[int]mdgan.ByzantineMode, defense bool) *mdgan.RunResult {
		o := mdgan.Options{
			Algorithm: mdgan.MDGAN, Workers: 8, Batch: 10, Iters: iters,
			Seed: 2, K: 2, NonIIDSkew: 0.8, EvalEvery: iters,
			FreeRiders: fr, Defense: defense,
		}
		res, err := mdgan.Run(train, mdgan.MLPArch(48), o, ev)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	baseScore, _ := run(nil, false).Curve.Last()
	var rows []benchRow
	for _, v := range []struct {
		name string
		mode mdgan.ByzantineMode
	}{
		{"random", mdgan.FreeRiderRandom},
		{"replay", mdgan.FreeRiderReplay},
		{"noise", mdgan.FreeRiderScaledNoise},
	} {
		fr := map[int]mdgan.ByzantineMode{2: v.mode, 5: v.mode}
		offScore, _ := run(fr, false).Curve.Last()
		start := time.Now()
		on := run(fr, true)
		elapsed := time.Since(start)
		onScore, _ := on.Curve.Last()
		honest := on.Faults.Demotions - on.Faults.FreeRidersDemoted
		log.Printf("FreeRiderSummary/%s [%s]: score base=%.3f off=%.3f on=%.3f, demoted freeriders=%d honest=%d",
			v.name, tensor.DTypeName, baseScore, offScore, onScore, on.Faults.FreeRidersDemoted, honest)
		rows = append(rows, benchRow{
			Name:              "FreeRiderSummary/" + v.name,
			Dtype:             tensor.DTypeName,
			Iters:             on.Iters,
			NsPerOp:           float64(elapsed.Nanoseconds()) / float64(on.Iters),
			ScoreBaseline:     baseScore,
			ScoreDefenseOff:   offScore,
			ScoreDefenseOn:    onScore,
			FreeRidersDemoted: on.Faults.FreeRidersDemoted,
			HonestDemoted:     honest,
		})
	}
	return rows
}

// runRobustness is the -free-riders/-defense/-lifetimes one-off: a
// short scored non-IID digit run under the given attack, defense and
// retirement schedule, its final classifier score and fault ledger
// printed — the CLI-driveable version of the FreeRiderSummary rows.
func runRobustness(frSpec string, defense bool, ltSpec string, workers int) {
	fr, err := mdgan.ParseFreeRiders(frSpec)
	if err != nil {
		log.Fatal(err)
	}
	lts, err := mdgan.ParseLifetimes(ltSpec)
	if err != nil {
		log.Fatal(err)
	}
	if workers == 0 {
		workers = 8
	}
	train := mdgan.SynthDigits(640, 1)
	test := mdgan.SynthDigits(800, 2)
	log.Printf("robustness run: N=%d free-riders=%d defense=%v lifetimes=%d", workers, len(fr), defense, len(lts))
	scorer := mdgan.TrainScorer(test, 3)
	ev := mdgan.NewEvaluator(scorer, test, 500)
	const iters = 60
	o := mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: workers, Batch: 10, Iters: iters,
		Seed: 2, K: 2, NonIIDSkew: 0.8, EvalEvery: iters,
		FreeRiders: fr, Defense: defense, Lifetimes: lts,
	}
	res, err := mdgan.Run(train, mdgan.MLPArch(48), o, ev)
	if err != nil {
		log.Fatal(err)
	}
	score, fid := res.Curve.Last()
	fmt.Printf("iters=%d score=%.3f fid=%.2f surviving=%d\n", res.Iters, score, fid, len(res.Live))
	if res.Faults.Any() || res.Faults.Retirements > 0 {
		fmt.Print(res.Faults.String())
	}
}

// serveBenchRows runs the serving-tier concurrent-load benchmark:
// closed-loop clients hammering an in-process SampleServer (checkpoint
// on disk, loaded through the real facade), measuring aggregate
// samples/sec and per-request latency percentiles. Closed-loop clients
// are the coalescer's worst case — each offers a new request only after
// its previous response lands — so the achieved avg_batch is a lower
// bound on what open-loop traffic would fuse.
func serveBenchRows() []benchRow {
	dir, err := os.MkdirTemp("", "mdgan-serve-bench-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "g.ckpt")
	if err := mdgan.SaveGenerator(mdgan.MLPArch(128).NewGAN(2, 0, 1).G, ckpt); err != nil {
		log.Fatal(err)
	}
	s, err := mdgan.NewSampleServer(mdgan.ServeOptions{
		Arch: mdgan.MLPArch(128), Checkpoint: ckpt,
		MaxBatch: 64, MaxWait: 500 * time.Microsecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	const (
		clients   = 32
		perClient = 48
		perReq    = 4 // samples per request
	)
	lats := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				x, _, err := s.Sample(perReq, nil)
				if err != nil {
					log.Fatal(err)
				}
				s.Release(x)
				lats[c] = append(lats[c], time.Since(t0))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p50 := all[len(all)/2]
	p99 := all[len(all)*99/100]
	st := s.Status()
	samplesPerSec := float64(st.Samples) / wall.Seconds()
	log.Printf("ServeThroughput [%s]: %.0f samples/s over %d requests (%d clients, avg batch %.1f)",
		tensor.DTypeName, samplesPerSec, st.Requests, clients, st.AvgBatch)
	log.Printf("ServeLatency [%s]: p50 %v, p99 %v", tensor.DTypeName, p50.Round(time.Microsecond), p99.Round(time.Microsecond))
	return []benchRow{
		{
			Name: "ServeThroughput", Dtype: tensor.DTypeName,
			Iters:         int(st.Requests),
			NsPerOp:       float64(wall.Nanoseconds()) / float64(st.Samples),
			SamplesPerSec: samplesPerSec,
			AvgBatch:      st.AvgBatch,
		},
		{
			Name: "ServeLatency", Dtype: tensor.DTypeName,
			Iters:   len(all),
			NsPerOp: float64(p50.Nanoseconds()),
			P50Ms:   float64(p50.Nanoseconds()) / 1e6,
			P99Ms:   float64(p99.Nanoseconds()) / 1e6,
		},
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mdgan-bench: ")
	var (
		only      = flag.String("only", "", "run one experiment: table2|table3|table4|fig2|fig3|fig4|fig5|fig6")
		scale     = flag.String("scale", "quick", "experiment scale: quick | full")
		workers   = flag.Int("workers", 0, "override the simulated cluster size for the training-backed experiments (0 = scale default)")
		csvDir    = flag.String("csv", "", "directory to write CSV series into")
		benchJSON = flag.String("benchjson", "", "write hot-path micro-benchmark results to this JSON file and exit")
		dtype     = flag.String("dtype", "", "assert the compiled tensor element type (float64 | float32); the dtype is a build-time property, so a mismatch is fatal with a rebuild hint")
		pipeline  = flag.Bool("pipeline", false, "run the MD-GAN competitors of the training-backed experiments through the pipelined engine (one-iteration parameter staleness) instead of strict Algorithm 1")
		topology  = flag.String("topology", "tree:2", "aggregation overlay of the topology-tagged -benchjson rows: tree:<depth> | flat (flat suppresses them)")
		fanin     = flag.Int("fanin", 0, "tree per-node child bound for -topology (0 = auto)")
		listKerns = flag.Bool("list-kernels", false, "print the GEMM kernel tiers this host can force (one per line, see MDGAN_GEMM_KERNEL) and exit")
		benchDiff = flag.String("benchdiff", "", "diff this -benchjson report against -baseline and exit (advisory: regressions are flagged in the output, not the exit code)")
		baseline  = flag.String("baseline", "", "baseline -benchjson report for -benchdiff")
		freeRider = flag.String("free-riders", "", "robustness one-off: free-riding workers as N[:variant] or i=variant,... (variant random | replay | noise); runs a short scored non-IID digit run and exits")
		defense   = flag.Bool("defense", false, "enable the feedback-quality defense in the robustness one-off")
		lifetimes = flag.String("lifetimes", "", "robustness one-off: retirement windows i=join:retire,... (join must be 0 without a join schedule)")
	)
	flag.Parse()

	if *listKerns {
		for _, k := range tensor.GemmKernels() {
			fmt.Println(k)
		}
		return
	}
	if *benchDiff != "" {
		if *baseline == "" {
			log.Fatal("-benchdiff needs -baseline")
		}
		runBenchDiff(*benchDiff, *baseline)
		return
	}

	if *dtype != "" && *dtype != tensor.DTypeName {
		hint, example := "-tags f32", "go run -tags f32 ./cmd/mdgan-bench …"
		if *dtype == "float64" {
			hint, example = "no build tags", "go run ./cmd/mdgan-bench …"
		}
		log.Fatalf("this binary computes in %s; for -dtype %s rebuild with %s (e.g. `%s`)",
			tensor.DTypeName, *dtype, hint, example)
	}

	if *benchJSON != "" {
		writeBenchJSON(*benchJSON, *topology, *fanin)
		return
	}

	if *freeRider != "" || *defense || *lifetimes != "" {
		runRobustness(*freeRider, *defense, *lifetimes, *workers)
		return
	}

	sc := mdgan.QuickScale
	if *scale == "full" {
		sc = mdgan.FullScale
	}
	if *workers > 0 {
		sc.Workers = *workers
	}
	sc.Pipeline = *pipeline
	want := func(name string) bool { return *only == "" || *only == name }
	writeCSV := func(name, content string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*csvDir, name+".csv")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	}

	if want("table2") {
		mnist, cifar := mdgan.PaperMNISTComplexity(), mdgan.PaperCIFARComplexity()
		mnist.B, mnist.I = 10, 50000
		cifar.B, cifar.I = 10, 50000
		fmt.Print(mdgan.FormatTableII("MNIST MLP (paper counts)", mnist))
		fmt.Print(mdgan.FormatTableII("CIFAR10 CNN (paper counts)", cifar))
	}
	if want("table3") {
		fmt.Print(mdgan.TableIIIFormulas())
	}
	if want("table4") {
		fmt.Print(mdgan.FormatTableIV(mdgan.ComputeTableIV(mdgan.PaperCIFARComplexity(), []int{10, 100})))
	}
	if want("fig2") {
		batches := []int{1, 10, 100, 1000, 10000}
		for name, p := range map[string]mdgan.ComplexityParams{
			"mnist": mdgan.PaperMNISTComplexity(),
			"cifar": mdgan.PaperCIFARComplexity(),
		} {
			if *workers > 0 {
				p.N = *workers
			}
			fmt.Print(mdgan.FormatFig2(name, p, mdgan.ComputeFig2(p, batches)))
		}
	}
	if want("fig3") {
		for _, panel := range []mdgan.Fig3Panel{mdgan.Fig3MNISTMLP, mdgan.Fig3MNISTCNN, mdgan.Fig3CIFARCNN} {
			start := time.Now()
			curves, err := mdgan.RunFig3(panel, sc)
			if err != nil {
				log.Fatal(err)
			}
			title := fmt.Sprintf("Figure 3 panel %s (%v)", panel, time.Since(start).Round(time.Second))
			fmt.Print(mdgan.FormatCurves(title, curves))
			writeCSV("fig3-"+strings.ReplaceAll(string(panel), "/", "-"), mdgan.FormatCurvesCSV(curves))
		}
	}
	if want("fig4") {
		// Figure 4 trains to convergence at every point, so quick scale
		// caps the axis at 50 workers; -scale full runs the whole sweep
		// (the 100–500 tail is otherwise covered by the per-iteration
		// BenchmarkMDGANIterationK rows).
		ns := workerSweep
		if *scale != "full" {
			var capped []int
			for _, n := range ns {
				if n <= 50 {
					capped = append(capped, n)
				}
			}
			if len(capped) < len(ns) {
				log.Printf("fig4: quick scale caps the worker axis at 50 (dropped %v); use -scale full for the whole sweep", ns[len(capped):])
			}
			ns = capped
		}
		rows, err := mdgan.RunFig4(ns, sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(mdgan.FormatFig4(rows))
	}
	if want("fig5") {
		curves, err := mdgan.RunFig5(mdgan.Fig3MNISTMLP, sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(mdgan.FormatCurves("Figure 5: fault tolerance (MNIST MLP)", curves))
		writeCSV("fig5", mdgan.FormatCurvesCSV(curves))
	}
	if want("fig6") {
		curves, err := mdgan.RunFig6(sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(mdgan.FormatCurves("Figure 6: faces (CelebA stand-in)", curves))
		writeCSV("fig6", mdgan.FormatCurvesCSV(curves))
	}
}
