package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mdgan"
	"mdgan/internal/core"
	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/opt"
	"mdgan/internal/parallel"
	"mdgan/internal/tensor"
)

// The layers child measures single layers from outside, through their
// public functions, in one process at the GOMAXPROCS its parent sets:
// micro-measurements of tensor, opt, gan, dataset, serve and the
// checkpoint code at the workload's shapes, and the serial replay of
// one op. Its budget is -seconds; every loop below takes a fixed share.

// layersResult is the layers child's output line.
type layersResult struct {
	Metrics map[string]float64 `json:"metrics"`
	// ReplayOpMS is the mean duration of the replayed ops the layer
	// table is built from; its rows sum to it.
	ReplayOpMS float64 `json:"replay_op_ms"`
	Spans      []span  `json:"spans"`
	// Scale is the probe normalisation of each replayed op.
	Scale []float64 `json:"scale"`
}

func runLayersChild(o childOpts, mode string) error {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	res := layersResult{Metrics: map[string]float64{}}
	switch mode {
	case "fanout":
		fanout(res.Metrics, o.seconds)
	case "layers":
		if wl.serve {
			err = serveLayerMetrics(&res, o)
		} else {
			trainLayerMetrics(&res, wl, o)
		}
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(&res)
}

// timeCalls calls fn repeatedly for about the given time (at least five
// calls) and returns the median call in milliseconds on the reference
// host: the loop is bracketed by two probe readings.
func timeCalls(budget time.Duration, fn func()) float64 {
	fn() // first call pays allocation and page faults
	procs := runtime.GOMAXPROCS(0)
	before := readProbe(procs)
	var ms []float64
	for start := time.Now(); len(ms) < 5 || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	after := readProbe(procs)
	med, _ := median(ms)
	return med * refScale(before, after)
}

// share returns the given share of a budget in seconds.
func share(seconds, part float64) time.Duration {
	return time.Duration(seconds * part * float64(time.Second))
}

// gemmMetrics times MatMulInto at the two model-shaped sizes and at the
// 512³ calibration size every result file carries.
func gemmMetrics(m map[string]float64, budget time.Duration) {
	for _, c := range []struct {
		name    string
		m, k, n int
	}{
		{"tensor.gemm_gflops.m10", 10, 784, 512},
		{"tensor.gemm_gflops.m64", 64, 128, 784},
		{"tensor.gemm_gflops.sq512", 512, 512, 512},
	} {
		rng := rand.New(rand.NewSource(1))
		a, b, out := tensor.New(c.m, c.k), tensor.New(c.k, c.n), tensor.New(c.m, c.n)
		for i := range a.Data {
			a.Data[i] = tensor.Elem(rng.NormFloat64())
		}
		for i := range b.Data {
			b.Data[i] = tensor.Elem(rng.NormFloat64())
		}
		ms := timeCalls(budget/3, func() { tensor.MatMulInto(out, a, b) })
		m[c.name] = 2 * float64(c.m) * float64(c.k) * float64(c.n) / (ms * 1e6)
	}
}

// wireMetrics times the tensor wire codec on the given tensors and
// reports microseconds per megabyte of frame.
func wireMetrics(m map[string]float64, budget time.Duration, ts []*tensor.Tensor) {
	var frames [][]byte
	var mb float64
	for _, t := range ts {
		f := t.AppendBinary(nil)
		frames = append(frames, f)
		mb += float64(len(f)) / 1e6
	}
	enc := timeCalls(budget/2, func() {
		for i, t := range ts {
			frames[i] = t.AppendBinary(frames[i][:0])
		}
	})
	dec := timeCalls(budget/2, func() {
		for i, t := range ts {
			if _, err := t.ReadInPlace(bytes.NewReader(frames[i])); err != nil {
				panic(err) // the frame was encoded from this very tensor
			}
		}
	})
	m["tensor.encode_us_per_mb"] = enc * 1e3 / mb
	m["tensor.decode_us_per_mb"] = dec * 1e3 / mb
}

// fanout measures what one parallel region costs when its tasks are
// trivial: the price every fanned-out kernel pays before it saves
// anything.
func fanout(m map[string]float64, seconds float64) {
	p := runtime.GOMAXPROCS(0)
	sink := make([]int, 4*p)
	region := func() {
		parallel.ForGrain(4*p, 1, func(s, e int) {
			for i := s; i < e; i++ {
				sink[i]++
			}
		})
	}
	m["parallel.region_us"] = timeCalls(share(seconds, 0.5), region) * 1e3
	const runs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		region()
	}
	runtime.ReadMemStats(&after)
	m["parallel.region_allocs"] = float64(after.Mallocs-before.Mallocs) / runs
}

// trainLayerMetrics fills the per-layer metrics a training workload's
// layers child owns.
func trainLayerMetrics(res *layersResult, wl *workload, o childOpts) {
	m := res.Metrics
	before, t0 := readProbe(1), time.Now()
	ds := wl.data(o.seed)
	m["dataset.synth_ms"] = float64(time.Since(t0)) / 1e6 * refScale(before, readProbe(1))
	shards := dataset.Split(ds, wl.workers, o.seed+1)
	sampler := dataset.NewSampler(shards[0], o.seed)
	m["dataset.sample_us"] = timeCalls(share(o.seconds, 0.03), func() { sampler.Sample(wl.batch) }) * 1e3

	gemmMetrics(m, share(o.seconds, 0.15))

	arch := wl.arch()
	couple := arch.NewGAN(o.seed, 0, 1)
	rng := rand.New(rand.NewSource(o.seed))
	batch, _ := couple.G.Generate(wl.batch, rng, true)
	wire := []*tensor.Tensor{batch.Clone()}
	for _, p := range couple.D.Params() {
		wire = append(wire, p.W) // a swap ships every discriminator parameter
	}
	wireMetrics(m, share(o.seconds, 0.07), wire)

	z, lab := couple.G.SampleZ(bulkN, rng)
	m["gan.gen_forward_serve_ms"] = timeCalls(share(o.seconds, 0.05), func() { couple.G.Forward(z, lab, false) })

	// The standalone / FL-GAN worker runs a local generator step where
	// an MD-GAN worker only computes the feedback.
	optG := opt.NewAdam(opt.AdamConfig{})
	genLocal := timeCalls(share(o.seconds, 0.1), func() { gan.GenStepLocal(couple, optG, wl.batch, rng) })

	plain := newTracer()
	replayTrain(wl, o.seed, plain, false, share(o.seconds, 0.2))
	_, m["replay.plain_op_ms"] = layerTable(plain.all, plain.scale())
	tr := newTracer()
	replayTrain(wl, o.seed, tr, true, share(o.seconds, 0.4))
	rows := res.table(tr)
	layerRows(m, rows)
	calls := callMedians(tr.all, res.Scale)
	m["gan.disc_step_ms"] = calls["gan.disc_step"]
	m["gan.feedback_ms"] = calls["gan.feedback"]
	m["gan.gen_forward_ms"] = calls["gan.gen_forward"]
	m["gan.gen_backward_ms"] = calls["gan.gen_backward"]
	m["gan.worker_cost_ratio_vs_flgan"] = (calls["gan.disc_step"] + genLocal) / (calls["gan.disc_step"] + calls["gan.feedback"])
	params := couple.G.NumParams() + wl.workers*couple.D.NumParams()
	m["opt.adam_ns_per_param"] = rows["opt.adam_step"] * 1e6 / float64(params)
}

// layerRows copies the layer table's rows into the per-layer metrics.
func layerRows(m, rows map[string]float64) {
	for _, k := range []string{"dense", "conv", "convT", "act"} {
		m["nn."+k+"_fwd_ms"] = rows["nn."+k+"_fwd"]
		m["nn."+k+"_bwd_ms"] = rows["nn."+k+"_bwd"]
	}
	m["nn.mbd_ms"] = rows["nn.mbd_fwd"] + rows["nn.mbd_bwd"]
	m["opt.adam_step_ms"] = rows["opt.adam_step"]
}

// table builds the layer table from the tracer's spans and readings
// and keeps both in the result.
func (res *layersResult) table(tr *tracer) (rows map[string]float64) {
	res.Spans, res.Scale = tr.all, tr.scale()
	rows, res.ReplayOpMS = layerTable(res.Spans, res.Scale)
	return rows
}

// maxReplayOps caps a replay: a few hundred ops settle every row, and
// the tiny workload would otherwise record millions of spans.
const maxReplayOps = 300

// callMedians returns the median inclusive duration in ms of the spans
// of every name, each scaled like its op.
func callMedians(spans []span, scale []float64) map[string]float64 {
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s.ms()*scale[s.Op])
	}
	out := make(map[string]float64, len(by))
	for name, ms := range by {
		out[name], _ = median(ms)
	}
	return out
}

// replayTrain runs one op's call sequence on one goroutine, on models
// built with the decorated layers: k generator forwards, N ×
// (DiscStep + Feedback) with the batches crossing the wire codec, then
// k × (re-forward + backward) and the generator's Adam step — what the
// strict engine computes per op, minus everything the engine itself
// adds (routing, aggregation, channel hand-off, goroutine switches, GC
// assist), which is what core.self_ms then measures. Spans taken inside
// the engine's N interleaved worker goroutines would absorb each
// other's time; here every span is exclusive by construction.
//
// With layers false the models are built plain and only the calls the
// replay itself makes are spanned: the tiny workload makes some 400
// layer calls per op, and two clock readings around each are a cost the
// engine does not pay.
func replayTrain(wl *workload, seed int64, tr *tracer, layers bool, budget time.Duration) {
	arch := wl.arch()
	if layers {
		arch = instrument(arch, tr)
	}
	couple := arch.NewGAN(seed, 0, 1)
	newOpt := func() opt.Optimizer { return opt.NewAdam(opt.AdamConfig{}) }
	if layers {
		decorate(couple.D.Src, tr)
		if couple.D.Cls != nil {
			decorate(couple.D.Cls, tr)
		}
		newOpt = func() opt.Optimizer { return timedOpt{opt.NewAdam(opt.AdamConfig{}), tr} }
	}
	g, lc := couple.G, couple.LossConfig
	n, b, k := wl.workers, wl.batch, core.DefaultK(wl.workers)
	shards := wl.shards(seed)
	rng := rand.New(rand.NewSource(seed + 31))

	type worker struct {
		d       *gan.Discriminator
		opt     opt.Optimizer
		sampler *dataset.Sampler
		xd, xg  *tensor.Tensor
		fb      *tensor.Tensor
	}
	shape := append([]int{b}, arch.OutShape...)
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{
			d:       couple.D.Clone(),
			opt:     newOpt(),
			sampler: dataset.NewSampler(shards[i], seed+int64(i)),
			xd:      tensor.New(shape...), xg: tensor.New(shape...), fb: tensor.New(shape...),
		}
	}
	optG := newOpt()
	zs := make([]*tensor.Tensor, k)
	labs := make([][]int, k)
	frames := make([][]byte, k)
	var fbFrame []byte
	decode := func(dst *tensor.Tensor, frame []byte) {
		i := tr.begin("tensor.decode")
		if _, err := dst.ReadInPlace(bytes.NewReader(frame)); err != nil {
			panic(err) // the frame was encoded from a tensor of dst's shape
		}
		tr.end(i)
	}

	const warm = 2
	start := time.Now()
	for op := -warm; op < 3 || (time.Since(start) < budget && op < maxReplayOps); op++ {
		if op == 0 {
			tr.reset()
			start = time.Now()
		}
		root := tr.begin("replay.op")
		for j := 0; j < k; j++ {
			i := tr.begin("gan.gen_forward")
			z, lab := g.SampleZ(b, rng)
			x := g.Forward(z, lab, true)
			tr.end(i)
			zs[j], labs[j] = z, lab
			i = tr.begin("tensor.encode")
			frames[j] = x.AppendBinary(frames[j][:0])
			tr.end(i)
		}
		for wi, w := range ws {
			gi, di := wi%k, (wi+1)%k
			decode(w.xd, frames[di])
			decode(w.xg, frames[gi])
			i := tr.begin("dataset.sample")
			xr, lr := w.sampler.Sample(b)
			tr.end(i)
			i = tr.begin("gan.disc_step")
			gan.DiscStep(w.d, lc, w.opt, xr, lr, w.xd, labs[di])
			tr.end(i)
			i = tr.begin("gan.feedback")
			fn, _ := gan.Feedback(w.d, lc, w.xg, labs[gi])
			tr.end(i)
			i = tr.begin("tensor.encode")
			fbFrame = fn.AppendBinary(fbFrame[:0])
			tr.end(i)
			decode(w.fb, fbFrame)
		}
		g.ZeroGrads()
		for j := 0; j < k; j++ {
			i := tr.begin("gan.gen_forward")
			g.Forward(zs[j], labs[j], true)
			tr.end(i)
			i = tr.begin("gan.gen_backward")
			g.Backward(ws[j].fb) // worker j scored batch j
			tr.end(i)
		}
		optG.Step(g.Params())
		tr.endOp(root)
	}
	tr.close()
}

// serveLayerMetrics fills the per-layer metrics of the serving
// workload's layers child: the generator at inference, the in-process
// coalescer, the wire codec on a response, and the checkpoint code.
func serveLayerMetrics(res *layersResult, o childOpts) error {
	m := res.Metrics
	gemmMetrics(m, share(o.seconds, 0.15))

	tr := newTracer()
	arch := instrument(mdgan.MLPArch(serveWidth), tr)
	g := arch.NewGAN(o.seed, 0, 1).G
	rng := rand.New(rand.NewSource(o.seed))

	ckpt := filepath.Join(outDir, fmt.Sprintf("layers-seed%d.ckpt", o.seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	defer os.Remove(ckpt)
	var ckptErr error
	m["mdgan.ckpt_save_ms"] = timeCalls(share(o.seconds, 0.1), func() {
		if err := mdgan.SaveGenerator(g, ckpt); err != nil {
			ckptErr = err
		}
	})
	m["mdgan.ckpt_load_ms"] = timeCalls(share(o.seconds, 0.05), func() {
		if err := mdgan.LoadGenerator(g, ckpt); err != nil {
			ckptErr = err
		}
	})
	if ckptErr != nil {
		return ckptErr
	}

	// The replayed op of the serving workload is the fused forward the
	// bulk stream triggers: batch 64, inference mode.
	z64, lab64 := g.SampleZ(bulkN, rng)
	var out *tensor.Tensor
	tr.reset()
	start := time.Now()
	for op := 0; op < 5 || time.Since(start) < share(o.seconds, 0.2); op++ {
		root := tr.begin("gan.gen_forward_serve")
		out = g.Forward(z64, lab64, false)
		tr.endOp(root)
	}
	tr.close()
	layerRows(m, res.table(tr))
	m["gan.gen_forward_serve_ms"] = res.ReplayOpMS
	z1, lab1 := g.SampleZ(1, rng)
	m["gan.gen_forward_ms"] = timeCalls(share(o.seconds, 0.05), func() { g.Forward(z1, lab1, false) })
	wireMetrics(m, share(o.seconds, 0.1), []*tensor.Tensor{out.Clone()})

	srv, err := mdgan.NewSampleServer(mdgan.ServeOptions{Arch: mdgan.MLPArch(serveWidth), Checkpoint: ckpt, Seed: o.seed})
	if err != nil {
		return err
	}
	defer srv.Close()
	var sampleErr error
	for _, c := range []struct {
		name string
		n    int
	}{{"serve.sample_ms_p50.n1", 1}, {"serve.sample_ms_p50.n64", bulkN}} {
		m[c.name] = timeCalls(share(o.seconds, 0.12), func() {
			t, _, err := srv.Sample(c.n, nil)
			if err != nil {
				sampleErr = err
				return
			}
			srv.Release(t)
		})
	}
	if sampleErr != nil {
		return sampleErr
	}
	// A lone n=1 caller waits out the batch window before its forward.
	m["serve.window_wait_ms"] = m["serve.sample_ms_p50.n1"] - m["gan.gen_forward_ms"]
	return nil
}
