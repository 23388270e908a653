package core

// Engine-decomposition regression tests.
//
// TestStrictEngineMatchesSerialReference pins the engine's core
// guarantee: the staged round engine in strict (default) mode produces
// bitwise-identical generator parameters to a serial, message-free
// replay of Algorithm 1. If a stage reorders an RNG draw, changes the
// merge order or accidentally makes pipelining the default, this fails.
// Every case also runs under a depth-2 aggregation tree, compared
// against the star within tolerance (the serial reference models the
// star; workers' partial sums are reassociation-equivalent to its mean,
// not bitwise).
//
// TestPipelinedEngineMatchesSerialReference pins the pipelined schedule
// bitwise against the same replay run on that schedule. The other
// pipelined tests pin the documented one-iteration staleness contract:
// identical to strict at Iters=1 (no round to overlap with), convergent
// to the same ring at full length.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mdgan/internal/cluster"
	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// serialReference replays Algorithm 1 with plain loops and no message
// passing, mirroring the engine's deterministic contract: the same RNG
// streams (server Seed+31, sampler Seed+7919·(i+1)), the same draw
// order (joins → sampling → k latent draws → swap permutation), the
// same §IV-B1 SPLIT, the same merge order and the same swap wire
// round-trip. It supports crashes and client sampling (not joins or
// byzantine modes, which have their own determinism tests).
//
// With cfg.Pipeline it replays the pipelined schedule instead: round
// it+1's latents are drawn and forwarded after round it's swap
// permutation, from parameters that round it's update has not reached
// yet, with k = min(K, ActivePerRound, live) at that point; round it+1
// then samples its workers after those draws and keeps that k even if
// a crash left fewer active workers than batches.
func serialReference(shards []*dataset.Dataset, arch gan.Arch, cfg Config) []float64 {
	cfg.TrainConfig = cfg.TrainConfig.Defaults()
	n := len(shards)
	kCfg := cfg.K
	if kCfg == 0 {
		kCfg = DefaultK(n)
	}
	swapE := cfg.SwapEvery
	if swapE == 0 {
		swapE = 1
	}
	couple := arch.NewGAN(cfg.Seed, cfg.GenLoss, 1)
	g := couple.G
	lc := couple.LossConfig
	optG := opt.NewAdam(cfg.OptG)
	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	swapInterval := dataset.EpochIters(shards, swapE, cfg.Batch)

	type refWorker struct {
		d       *gan.Discriminator
		optD    *opt.Adam
		sampler *dataset.Sampler
	}
	ws := make(map[string]*refWorker, n)
	live := make([]string, n)
	for i := 0; i < n; i++ {
		live[i] = workerName(i)
		ws[live[i]] = &refWorker{
			d:       couple.D.Clone(),
			optD:    opt.NewAdam(cfg.OptD),
			sampler: dataset.NewSampler(shards[i], cfg.Seed+7919*int64(i+1)),
		}
	}
	alive := func() []string {
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			if ws[workerName(i)] != nil {
				out = append(out, workerName(i))
			}
		}
		return out
	}
	// batches holds one round's generated batches and the draws behind
	// them.
	type batches struct {
		zs   []*tensor.Tensor
		labs [][]int
		xs   []*tensor.Tensor
	}
	generate := func(k int) *batches {
		b := &batches{zs: make([]*tensor.Tensor, k), labs: make([][]int, k), xs: make([]*tensor.Tensor, k)}
		for j := 0; j < k; j++ {
			b.zs[j], b.labs[j] = g.SampleZ(cfg.Batch, rng)
			b.xs[j] = g.Forward(b.zs[j], b.labs[j], true).Clone()
		}
		return b
	}
	var ahead *batches // pipelined: this round's batches, generated a round early

	for it := 1; it <= cfg.Iters; it++ {
		for _, idx := range cfg.CrashAt[it] {
			delete(ws, workerName(idx))
		}
		active := alive()
		if len(active) == 0 || ahead != nil && len(ahead.zs) == 0 {
			break
		}
		if cfg.ActivePerRound > 0 && cfg.ActivePerRound < len(active) {
			rng.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
			active = active[:cfg.ActivePerRound]
			sortStrings(active)
		}
		cur := ahead
		if cur == nil {
			cur = generate(min(kCfg, len(active)))
		}
		k, zs, labs, xs := len(cur.zs), cur.zs, cur.labs, cur.xs
		swapTo := map[string]string{}
		if swapInterval > 0 && it%swapInterval == 0 && len(active) > 1 {
			swapTo = sattolo(active, rng)
		}
		if cfg.Pipeline && it < cfg.Iters {
			bound := len(alive())
			if cfg.ActivePerRound > 0 && cfg.ActivePerRound < bound {
				bound = cfg.ActivePerRound
			}
			ahead = generate(min(kCfg, bound))
		}
		// Worker side: L discriminator steps + feedback, in any order
		// (workers are independent); swaps apply after every feedback
		// is computed, matching the engine's post-round rendezvous.
		feedbacks := make(map[string]*tensor.Tensor, len(active))
		for i, name := range active {
			w := ws[name]
			gi, di := i%k, (i+1)%k
			xr, lr := w.sampler.Sample(cfg.Batch)
			for l := 0; l < cfg.DiscSteps; l++ {
				gan.DiscStep(w.d, lc, w.optD, xr, lr, xs[di], labs[di])
			}
			fn, _ := gan.Feedback(w.d, lc, xs[gi], labs[gi])
			feedbacks[name] = fn.Clone()
		}
		if len(swapTo) > 0 {
			payloads := make(map[string][]byte, len(swapTo))
			for from, to := range swapTo {
				payloads[to] = encodeDiscParams(ws[from].d, cfg.SwapPrec)
			}
			for to, p := range payloads {
				if err := decodeDiscParamsInto(ws[to].d, p); err != nil {
					panic(err)
				}
			}
		}
		// Server side: merge per generated batch in worker order.
		groups := make([][]*tensor.Tensor, k)
		for i, name := range active {
			groups[i%k] = append(groups[i%k], feedbacks[name])
		}
		outGrads := make([]*tensor.Tensor, k)
		for j, fs := range groups {
			if len(fs) == 0 {
				continue
			}
			agg := aggregateFeedbacks(fs, cfg.Aggregate, nil)
			outGrads[j] = agg.ScaleInPlace(float64(len(fs)) / float64(len(active)))
		}
		g.ZeroGrads()
		for j := 0; j < k; j++ {
			if outGrads[j] == nil {
				continue
			}
			g.Forward(zs[j], labs[j], true)
			g.Backward(outGrads[j])
		}
		optG.Step(g.Params())
	}
	return nn.ParamVector(g.Net.Params())
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestStrictEngineMatchesSerialReference(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", func(c *Config) {}},
		{"swaps", func(c *Config) { c.SwapEvery = 1 }},
		{"crashes", func(c *Config) { c.CrashAt = map[int][]int{4: {1}, 7: {3}} }},
		{"sampling", func(c *Config) { c.ActivePerRound = 3 }},
		{"swaps+crashes+sampling", func(c *Config) {
			c.SwapEvery = 1
			c.CrashAt = map[int][]int{5: {0}}
			c.ActivePerRound = 3
		}},
		{"native-swaps", func(c *Config) { c.SwapEvery = 1; c.SwapPrec = SwapNative }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() ([]*dataset.Dataset, Config) {
				shards := ringShards(5, 96, 311)
				cfg := baseConfig()
				cfg.Iters = 12
				cfg.Batch = 16
				cfg.SwapEvery = -1
				tc.mut(&cfg)
				return shards, cfg
			}
			// The star: bitwise against the serial replay.
			t.Run("flat", func(t *testing.T) {
				shards, cfg := mk()
				res, err := Train(shards, gan.RingMLP(), cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				refShards, refCfg := mk()
				want := serialReference(refShards, gan.RingMLP(), refCfg)
				got := nn.ParamVector(res.G.Net.Params())
				if len(got) != len(want) {
					t.Fatalf("parameter count %d vs %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("strict engine diverged from serial Algorithm 1 at param %d: %g vs %g",
							i, got[i], want[i])
					}
				}
			})
			// A depth-2 tree over the same config against the star, over
			// a short horizon: worker-side partial sums reassociate the
			// mean, and that drift compounds chaotically through Adam
			// beyond a couple of updates. Crash schedules land past iter
			// 2 and so reduce to fault-free runs here, which is the point
			// — this axis pins the fault-free reduce path under every
			// routing variant (sampling, swaps, native swaps).
			t.Run("tree:2", func(t *testing.T) {
				run := func(topo *cluster.Tree) []float64 {
					shards, cfg := mk()
					cfg.Iters = 2
					cfg.Topology = topo
					res, err := Train(shards, gan.RingMLP(), cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					return nn.ParamVector(res.G.Net.Params())
				}
				got, want := run(&cluster.Tree{Depth: 2}), run(nil)
				tol := tensor.Tol(1e-9, 2e-3)
				for i := range want {
					scale := math.Max(1, math.Abs(want[i]))
					if d := math.Abs(got[i] - want[i]); d > tol*scale {
						t.Fatalf("tree:2 diverged from flat at param %d: %g vs %g (Δ=%g)",
							i, got[i], want[i], d)
					}
				}
			})
		})
	}
}

// TestPipelinedOneIterationMatchesStrict: with a single iteration there
// is no next round to pregenerate, so the pipelined driver must be
// bitwise identical to strict — the zero-staleness anchor of the
// staleness contract.
func TestPipelinedOneIterationMatchesStrict(t *testing.T) {
	run := func(pipeline bool) []float64 {
		shards := ringShards(4, 96, 313)
		cfg := baseConfig()
		cfg.Iters = 1
		cfg.Pipeline = pipeline
		res, err := Train(shards, gan.RingMLP(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return nn.ParamVector(res.G.Net.Params())
	}
	strict, pipe := run(false), run(true)
	for i := range strict {
		if strict[i] != pipe[i] {
			t.Fatalf("param %d: pipelined %g vs strict %g with Iters=1", i, pipe[i], strict[i])
		}
	}
}

// TestPipelinedEngineMatchesSerialReference pins the pipelined driver
// bitwise against the serial replay of its schedule: generate-ahead
// after the swap permutation and before apply, k clamped by the
// membership bound at that point and not again. The crash case leaves
// one worker for a round generated with k = 2.
func TestPipelinedEngineMatchesSerialReference(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", func(c *Config) {}},
		{"k=1", func(c *Config) { c.K = 1 }},
		{"swaps", func(c *Config) { c.SwapEvery = 1 }},
		{"crashes", func(c *Config) { c.CrashAt = map[int][]int{4: {1}, 7: {0, 2, 3}} }},
		{"sampling", func(c *Config) { c.ActivePerRound = 3 }},
		{"swaps+crashes+sampling", func(c *Config) {
			c.SwapEvery = 1
			c.CrashAt = map[int][]int{5: {0}}
			c.ActivePerRound = 3
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() ([]*dataset.Dataset, Config) {
				shards := ringShards(5, 96, 311)
				cfg := baseConfig()
				cfg.Iters = 12
				cfg.Batch = 16
				cfg.SwapEvery = -1
				cfg.Pipeline = true
				tc.mut(&cfg)
				return shards, cfg
			}
			shards, cfg := mk()
			res, err := Train(shards, gan.RingMLP(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			refShards, refCfg := mk()
			want := serialReference(refShards, gan.RingMLP(), refCfg)
			got := nn.ParamVector(res.G.Net.Params())
			if len(got) != len(want) {
				t.Fatalf("parameter count %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("pipelined engine diverged from its serial schedule at param %d: %g vs %g",
						i, got[i], want[i])
				}
			}
		})
	}
}

// TestPipelinedConvergesLikeStrict: the one-iteration staleness must
// not change what is learned — both drivers put the generator on the
// ring, and their final sample statistics agree within the smoke
// tolerance.
func TestPipelinedConvergesLikeStrict(t *testing.T) {
	radius := func(pipeline bool) float64 {
		shards := ringShards(4, 400, 317)
		cfg := baseConfig()
		cfg.Iters = 400
		cfg.Batch = 32
		cfg.Pipeline = pipeline
		res, err := Train(shards, gan.RingMLP(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iters != cfg.Iters {
			t.Fatalf("pipeline=%v applied %d updates, want %d", pipeline, res.Iters, cfg.Iters)
		}
		rng := rand.New(rand.NewSource(77))
		x, _ := res.G.Generate(256, rng, false)
		sum := 0.0
		for i := 0; i < x.Dim(0); i++ {
			sum += math.Hypot(x.At(i, 0), x.At(i, 1))
		}
		return sum / float64(x.Dim(0))
	}
	rs, rp := radius(false), radius(true)
	if rs < 1.2 || rs > 2.8 {
		t.Fatalf("strict run off the ring: mean radius %v", rs)
	}
	if rp < 1.2 || rp > 2.8 {
		t.Fatalf("pipelined run off the ring: mean radius %v", rp)
	}
	if d := math.Abs(rs - rp); d > 0.6+tensor.Tol(0, 1e-3) {
		t.Fatalf("strict and pipelined converged apart: radii %v vs %v", rs, rp)
	}
}

// TestPipelinedWithCrashesSamplingAndSwaps: the pipelined driver runs
// the full membership machinery — scheduled crashes take effect at
// their iteration, sampling keeps rotating, swaps keep firing — and
// completes with the survivors.
func TestPipelinedWithCrashesSamplingAndSwaps(t *testing.T) {
	shards := ringShards(5, 96, 331)
	cfg := baseConfig()
	cfg.Iters = 20
	cfg.Batch = 16
	cfg.SwapEvery = 1
	cfg.ActivePerRound = 3
	cfg.Pipeline = true
	cfg.CrashAt = map[int][]int{6: {0}, 12: {4}}
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Live) != 3 {
		t.Fatalf("live = %v, want 3 survivors", res.Live)
	}
	if res.Iters != 20 {
		t.Fatalf("iters = %d; crashes must not stop pipelined training", res.Iters)
	}
}

// TestPipelinedJoin: dynamic joins work under the pipelined driver (the
// join protocol runs in the quiet window after a round's feedbacks are
// collected).
func TestPipelinedJoin(t *testing.T) {
	shards := ringShards(2, 96, 337)
	spare := dataset.GaussianRing(96, 8, 2.0, 0.05, 338)
	cfg := baseConfig()
	cfg.Iters = 12
	cfg.Batch = 16
	cfg.Pipeline = true
	cfg.JoinAt = map[int][]*dataset.Dataset{6: {spare}}
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Live) != 3 {
		t.Fatalf("live = %v, want 2 + 1 joiner", res.Live)
	}
}

// TestPipelinedOverTCP: the pipelined driver is transport-independent —
// a short run over real loopback sockets completes with full traffic.
func TestPipelinedOverTCP(t *testing.T) {
	shards := ringShards(2, 64, 339)
	cfg := baseConfig()
	cfg.Iters = 5
	cfg.Pipeline = true
	net := simnet.NewTCPNet()
	defer net.Close()
	cfg.Net = net
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 5 {
		t.Fatalf("iters = %d", res.Iters)
	}
	if res.Traffic.Bytes[simnet.CtoW] == 0 || res.Traffic.Bytes[simnet.WtoC] == 0 {
		t.Fatal("no traffic accounted over TCP")
	}
}

// failNet wraps a Net and fails every send to one victim from a given
// send count onward, reporting ErrNodeDown — the observable behaviour
// of a worker that died mid-round on a real transport. The victim's
// inbox stays open until the engine demotes it (membership calls
// Crash), exactly like a TCP peer whose process vanished.
type failNet struct {
	simnet.Net
	victim string
	after  int // fail the victim's sends once this many succeeded
	sent   int
}

func (f *failNet) Send(msg simnet.Message) error {
	if msg.To == f.victim && msg.Type == msgBatches {
		f.sent++
		if f.sent > f.after {
			return simnet.ErrNodeDown
		}
	}
	return f.Net.Send(msg)
}

// TestMidRoundSendFailureDemotesWorker: a batches send that fails with
// ErrNodeDown mid-run demotes the destination through the membership
// layer and training continues with the survivors — the pre-engine loop
// aborted the whole run here.
func TestMidRoundSendFailureDemotesWorker(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		inner := simnet.NewChannelNet(0)
		shards := ringShards(3, 96, 341)
		cfg := baseConfig()
		cfg.Iters = 10
		cfg.Batch = 16
		cfg.Pipeline = pipeline
		cfg.Net = &failNet{Net: inner, victim: workerName(1), after: 3}
		res, err := Train(shards, gan.RingMLP(), cfg, nil)
		inner.Close()
		if err != nil {
			t.Fatalf("pipeline=%v: mid-round send failure aborted training: %v", pipeline, err)
		}
		if len(res.Live) != 2 {
			t.Fatalf("pipeline=%v: live = %v, want the 2 survivors", pipeline, res.Live)
		}
		for _, name := range res.Live {
			if name == workerName(1) {
				t.Fatalf("pipeline=%v: demoted worker still reported live", pipeline)
			}
		}
		if res.Iters != cfg.Iters {
			t.Fatalf("pipeline=%v: iters = %d, want %d", pipeline, res.Iters, cfg.Iters)
		}
	}
}

// TestMidRoundSendFailureWithSwapsReleasesReceiver: when the demoted
// worker owed its discriminator to a peer this round, the engine's
// cancellation (empty msgSwap) releases that peer from its rendezvous —
// without it the run deadlocks on the next round.
func TestMidRoundSendFailureWithSwapsReleasesReceiver(t *testing.T) {
	inner := simnet.NewChannelNet(0)
	shards := ringShards(3, 64, 347)
	cfg := baseConfig()
	cfg.Iters = 12
	cfg.Batch = 16
	cfg.SwapEvery = 1 // m=64, b=16 → swap every 4 iterations
	cfg.Net = &failNet{Net: inner, victim: workerName(2), after: 4}
	done := make(chan *Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := Train(shards, gan.RingMLP(), cfg, nil)
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()
	select {
	case res := <-done:
		if len(res.Live) != 2 {
			t.Fatalf("live = %v, want 2 survivors", res.Live)
		}
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		t.Fatal("run deadlocked: swap receiver was never released after its sender's demotion")
	}
	inner.Close()
}

// brokenNet wraps a Net and fails a batches send with a plain (non-
// ErrNodeDown) transport error from a given send count onward — the
// "transport itself is broken" class the engine treats as fatal, and a
// deterministic way to drive Train down an error return path with a
// caller-supplied transport. (A corrupt FEEDBACK no longer aborts the
// run — see TestCorruptFeedbackDoesNotAbortRun — so the fatal path
// must be driven from the dispatch side.)
type brokenNet struct {
	simnet.Net
	after int64        // fail batches sends once this many succeeded
	sent  atomic.Int64 // simnet.BroadcastEach calls Send concurrently
}

func (b *brokenNet) Send(msg simnet.Message) error {
	if msg.Type == msgBatches {
		if b.sent.Add(1) > b.after {
			return fmt.Errorf("injected transport failure")
		}
	}
	return b.Net.Send(msg)
}

// TestTrainErrorPathStopsWorkers is the goroutine-leak regression for
// the shutdown satellite: with a caller-supplied net, an error return
// from the round loop (here: a fatal transport error at dispatch) used
// to leave every worker goroutine blocked on its inbox forever — no
// stop was sent and wait() was never reached. The defer-based shutdown
// must reap them on every exit path.
func TestTrainErrorPathStopsWorkers(t *testing.T) {
	before := goroutineBaseline()
	inner := simnet.NewChannelNet(0)
	shards := ringShards(4, 96, 353)
	cfg := baseConfig()
	cfg.Iters = 10
	cfg.Net = &brokenNet{Net: inner, after: 6}
	if _, err := Train(shards, gan.RingMLP(), cfg, nil); err == nil {
		t.Fatal("a fatal transport error at dispatch must surface")
	}
	// The caller still owns the net: workers must be gone even before
	// it is closed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked across a failing Train: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	inner.Close()
}

// TestRoutePayloadMatchesEncodeBatches: route ships pre-encoded batch
// frames by reference and builds the routing tail itself; the message
// it builds must decode, segmented as sent and flattened as TCP
// delivers it, to exactly the fields it chose and be byte-equal to
// encodeBatches of those fields — one batches-frame layout, on the star
// (empty parent, no children) and under a tree.
func TestRoutePayloadMatchesEncodeBatches(t *testing.T) {
	for _, topo := range []*cluster.Tree{nil, {Depth: 2}} {
		couple := gan.RingMLP().NewGAN(11, nn.GenLossNonSaturating, 0)
		srv := &server{
			cfg: &Config{
				TrainConfig: gan.TrainConfig{Batch: 4},
				Engine:      Engine{RoundTimeout: 30 * time.Millisecond, Topology: topo, SwapSched: RingSwap{}},
			},
			g: couple.G, rng: rand.New(rand.NewSource(11)), k: 2, swapInterval: 1,
		}
		r := &srv.rounds[0]
		r.reset(7)
		for i := 0; i < 9; i++ {
			r.active = append(r.active, workerName(i))
		}
		r.k = srv.k
		srv.generate(r)
		srv.route(r)
		aggregators := 0
		for i, msg := range r.msgs {
			name := r.active[i]
			var got, flat batchesMsg
			if err := decodeBatches(msg.Payload, &got, msg.Frames...); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := decodeBatches(msgBytes(msg), &flat); err != nil || !bytes.Equal(encodeBatches(flat), encodeBatches(got)) {
				t.Fatalf("%s: flattened message decodes to %+v (%v), segmented to %+v", name, flat, err, got)
			}
			want := batchesMsg{
				Xd: got.Xd, Ld: got.Ld, Xg: got.Xg, Lg: got.Lg,
				SwapTo: r.swapTo[name], Round: 7, GIdx: r.gIdx[name], AggWait: 15,
			}
			if r.plan != nil {
				want.Parent, want.Children = r.plan.Parent[name], r.plan.Children[name]
				if len(want.Children) > 0 {
					aggregators++
				}
			}
			if want.SwapTo == "" {
				t.Fatalf("%s: no swap routed on a swap round", name)
			}
			if got.SwapTo != want.SwapTo || got.Round != want.Round || got.Parent != want.Parent ||
				fmt.Sprint(got.Children) != fmt.Sprint(want.Children) || got.GIdx != want.GIdx || got.AggWait != want.AggWait {
				t.Fatalf("%s: routed payload decodes to %+v, route chose %+v", name, got, want)
			}
			if !bytes.Equal(msgBytes(msg), encodeBatches(want)) {
				t.Fatalf("%s: routed payload differs from encodeBatches of the same fields", name)
			}
		}
		if (topo != nil) != (aggregators > 0) {
			t.Fatalf("topology %v: %d aggregators routed", topo, aggregators)
		}
	}
}
