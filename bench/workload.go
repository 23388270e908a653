package main

import (
	"fmt"

	"mdgan/internal/dataset"
	"mdgan/internal/gan"
)

// A workload is one set of generated inputs the benchmark runs. The
// program under test sees only the inputs made from the seed; nothing
// in it can tell which workload it is serving.
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string
	// op defines what one timed operation is.
	op string

	// Training workloads (serve == false): one MD-GAN run on the strict
	// engine over an in-process ChannelNet, core.Config defaults (so
	// k = max(1, ⌊ln N⌋) and a swap every local epoch) except the fields
	// below.
	arch    func() gan.Arch
	data    func(seed int64) *dataset.Dataset
	workers int // N
	batch   int // b
	// warmOps is the number of ops run before timing starts: enough to
	// fault in the heap, fill the tensor pool and reach a steady GC
	// cadence. They belong to setup_s, which every one of the cold
	// starts pays, so the count is kept small.
	warmOps int
	// tailQ is the tail percentile op_ms_tail_1cpu reports: the highest
	// of p90/p95/p99 that keeps ten samples beyond it at the number of
	// ops the single-core phase completes in its share of the run.
	tailQ float64
	// imageRange is true when generated samples must lie in [−1, 1]
	// (tanh output).
	imageRange bool

	// serve marks the serving workload, which has its own driver
	// (serve.go).
	serve bool
}

var workloads = []workload{
	{
		name:    "mnist-mlp-n4",
		why:     "paper MLP (716k/670k params), N=4, b=10: weight-streaming regime where small-M GEMM packing, Adam and 2.7 MB swaps do the work and the engine little",
		op:      "one MD-GAN global iteration",
		arch:    gan.PaperMLP,
		data:    func(seed int64) *dataset.Dataset { return dataset.SynthDigits(1000, seed) },
		workers: 4, batch: 10, warmOps: 5, tailQ: 0.90, imageRange: true,
	},
	{
		name:    "cifar-cnn-n8",
		why:     "scaled CNN on 32x32x3, N=8, b=10: the conv path (im2col, ConvTranspose packers, minibatch discrimination, tensor pool) does the work, Adam and the wire little",
		op:      "one MD-GAN global iteration",
		arch:    func() gan.Arch { return gan.ScaledCNN(3, 32, 10) },
		data:    func(seed int64) *dataset.Dataset { return dataset.SynthCIFAR(800, seed) },
		workers: 8, batch: 10, warmOps: 10, tailQ: 0.90, imageRange: true,
	},
	{
		name:    "ring-tiny-n8",
		why:     "tiny MLP on a 2-D ring, N=8, b=16: FLOPs are negligible, so round stages, simnet hand-off, fan-out, allocation and GC do the work; a kernel speed-up must predict no change here",
		op:      "one MD-GAN global iteration",
		arch:    gan.RingMLP,
		data:    func(seed int64) *dataset.Dataset { return dataset.GaussianRing(4000, 8, 2.0, 0.05, seed) },
		workers: 8, batch: 16, warmOps: 310, tailQ: 0.99,
	},
	{
		name:  "serve-http-mix",
		why:   "real mdgan-serve child, two keep-alive closed-loop connections: interactive n=1 requests beside bulk n=64 requests, so frozen-weight inference, batch fusion and queueing behind bulk forwards show",
		op:    "one interactive n=1 POST /sample request",
		tailQ: 0.99,
		serve: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// shards makes the workload's inputs from the seed.
func (w *workload) shards(seed int64) []*dataset.Dataset {
	return dataset.Split(w.data(seed), w.workers, seed+1)
}

// swapInterval is the number of ops between discriminator swaps under
// core.Config defaults (E = 1 local epoch = m/b iterations, rounded to
// nearest). The engine computes it internally; the training child
// checks this copy against the worker-to-worker traffic it observes.
func (w *workload) swapInterval(shards []*dataset.Dataset) int {
	m := shards[0].Len()
	for _, s := range shards[1:] {
		if s.Len() < m {
			m = s.Len()
		}
	}
	iv := (m + w.batch/2) / w.batch
	if iv < 1 {
		iv = 1
	}
	return iv
}
