package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"mdgan/internal/cluster"
	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// treeConfig is baseConfig with a depth-2 tree over 9 workers (auto
// fan-in 3: aggregators worker0/3/6, two leaves each).
func treeConfig() Config {
	cfg := baseConfig()
	cfg.Topology = &cluster.Tree{Depth: 2}
	return cfg
}

// TestTreeAggregationMatchesFlat: a fault-free depth-2 tree must
// produce the same generator update as the flat star up to
// floating-point reassociation. What is still only tolerance-equal is
// the WORKER side: an aggregator forwards f₀+f₁+f₂ where the star's
// server would fold the same three terms into a longer mean, and the
// server then sees one pre-summed item per group instead of three. The
// server's own merge is no longer a source of drift — it is the star's
// formula over whatever items arrive, pinned bitwise by
// TestDepthOneTreeMatchesFlatBitwise. Compared over a couple of
// iterations (reassociation drift compounds chaotically through Adam
// beyond that) within tensor.Tol.
func TestTreeAggregationMatchesFlat(t *testing.T) {
	run := func(topo *cluster.Tree, iters int) []float64 {
		shards := ringShards(9, 96, 419)
		cfg := baseConfig()
		cfg.Iters = iters
		cfg.K = 3
		cfg.SwapEvery = 1
		cfg.Topology = topo
		res, err := Train(shards, gan.RingMLP(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return nn.ParamVector(res.G.Net.Params())
	}
	for _, iters := range []int{1, 2} {
		flat := run(nil, iters)
		tree := run(&cluster.Tree{Depth: 2}, iters)
		tol := tensor.Tol(1e-9, 2e-3)
		for i := range flat {
			scale := math.Max(1, math.Abs(flat[i]))
			if d := math.Abs(flat[i] - tree[i]); d > tol*scale {
				t.Fatalf("iters=%d param %d: tree %g vs flat %g (Δ=%g > %g)",
					iters, i, tree[i], flat[i], d, tol*scale)
			}
		}
	}
}

// TestDepthOneTreeMatchesFlatBitwise: cluster.Tree{Depth: 1} is the
// star's plan spelled out — every worker a direct child of the server,
// nobody aggregating — but in aggregate framing (msgAgg frames carrying
// one single-contributor entry each). The server runs one collect and
// one apply over either framing, so the generator must come out
// bit-for-bit the same. Group size 3 makes the 1/3 mean scaling
// inexact, which is what told the two former server-side arithmetics
// (mean·size/received vs sum/received) apart in the last ulp.
func TestDepthOneTreeMatchesFlatBitwise(t *testing.T) {
	run := func(topo *cluster.Tree) []float64 {
		shards := ringShards(9, 96, 419)
		cfg := baseConfig()
		cfg.Iters = 12
		cfg.K = 3
		cfg.SwapEvery = 1
		cfg.Topology = topo
		res, err := Train(shards, gan.RingMLP(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return nn.ParamVector(res.G.Net.Params())
	}
	flat, tree := run(nil), run(&cluster.Tree{Depth: 1})
	for i := range flat {
		if flat[i] != tree[i] {
			t.Fatalf("param %d: depth-1 tree %v vs flat %v — the star in aggregate framing must be the star",
				i, tree[i], flat[i])
		}
	}
}

// forgeNet replaces the victim's aggregate frames to the server with a
// hand-built, wire-valid frame that lists contribs (batch index →
// names) over zero sums.
type forgeNet struct {
	simnet.Net
	victim   string
	contribs map[int][]string
	shape    []int
}

func (n *forgeNet) Send(msg simnet.Message) error {
	if msg.From == n.victim && msg.To == serverName && msg.Type == msgAgg {
		round, _ := aggRound(msg.Payload)
		msg.Payload = forgedAggPayload(round, n.shape, n.contribs)
	}
	return n.Net.Send(msg)
}

// TestForgedAggregateContributorsStrikeSender is the regression for the
// unvalidated-ingest defect: the server used to account every name an
// aggregate frame listed. worker3 (which speaks for worker3..5) naming
// worker7 marked worker7 contributed — and alive — on worker3's word;
// worker7's real sum then arrived inside worker6's frame and was merged
// anyway, so the round divided by the wrong count and nothing was
// recorded. Such a frame is corrupt: its sender takes the strike (a
// demotion, without a round deadline), its subtree sits the round out,
// and the other two subtrees carry the run.
func TestForgedAggregateContributorsStrikeSender(t *testing.T) {
	inner := simnet.NewChannelNet(0)
	defer inner.Close()
	shards := ringShards(9, 96, 463)
	cfg := treeConfig()
	cfg.Iters = 6
	cfg.SwapEvery = -1
	// worker3's honest roster plus worker7. k = 2, so worker7 answers
	// batch 1 like worker3 and worker5: only the subtree check stands
	// between the forged name and the count.
	cfg.Net = &forgeNet{Net: inner, victim: workerName(3), shape: []int{cfg.Batch, 2},
		contribs: map[int][]string{0: {workerName(4)}, 1: {workerName(3), workerName(5), workerName(7)}}}
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != cfg.Iters {
		t.Fatalf("iters = %d, want %d", res.Iters, cfg.Iters)
	}
	if got := res.Faults.Workers[workerName(3)].CorruptFrames; got != 1 {
		t.Fatalf("worker3 corrupt frames = %d, want 1 (then demoted); faults: %+v", got, res.Faults)
	}
	if contains(res.Live, workerName(3)) || len(res.Live) != 8 {
		t.Fatalf("live = %v, want everyone but the forger", res.Live)
	}
}

// TestTreeTrainCompletes: a longer tree run with swaps converges onto
// the ring like the flat engine does, under both synchronous drivers.
func TestTreeTrainCompletes(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		shards := ringShards(9, 120, 433)
		cfg := treeConfig()
		cfg.Iters = 40
		cfg.SwapEvery = 1
		cfg.Pipeline = pipeline
		res, err := Train(shards, gan.RingMLP(), cfg, nil)
		if err != nil {
			t.Fatalf("pipeline=%v: %v", pipeline, err)
		}
		if res.Iters != cfg.Iters {
			t.Fatalf("pipeline=%v: iters = %d, want %d", pipeline, res.Iters, cfg.Iters)
		}
		if len(res.Live) != 9 {
			t.Fatalf("pipeline=%v: live = %v", pipeline, res.Live)
		}
		if res.Faults.Any() {
			t.Fatalf("pipeline=%v: fault-free tree run recorded faults: %+v", pipeline, res.Faults)
		}
	}
}

// TestTreeServerIngressReduction pins the scaling win: with a depth-2
// tree over 9 workers the server ingests one W→C frame per DIRECT
// child per round (3), not one per worker (9).
func TestTreeServerIngressReduction(t *testing.T) {
	const iters = 6
	run := func(topo *cluster.Tree) simnet.Traffic {
		shards := ringShards(9, 96, 439)
		cfg := baseConfig()
		cfg.Iters = iters
		cfg.SwapEvery = -1
		cfg.Topology = topo
		res, err := Train(shards, gan.RingMLP(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Traffic
	}
	flat := run(nil)
	tree := run(&cluster.Tree{Depth: 2})
	if got, want := flat.Msgs[simnet.WtoC], int64(9*iters); got != want {
		t.Fatalf("flat W→C msgs = %d, want %d", got, want)
	}
	if got, want := tree.Msgs[simnet.WtoC], int64(3*iters); got != want {
		t.Fatalf("tree W→C msgs = %d, want %d (fan-in-bounded ingress)", got, want)
	}
	// The leaves' contributions moved to the W→W tier (6 per round).
	if got, want := tree.Msgs[simnet.WtoW], int64(6*iters); got != want {
		t.Fatalf("tree W→W msgs = %d, want %d", got, want)
	}
}

// TestAggregatorFailureReparentsChildren: killing an aggregator
// mid-run (its batches dispatch starts failing with ErrNodeDown) must
// demote it, charge its two leaves a reparent, rehome them under the
// next round's plan, and complete training with the survivors.
func TestAggregatorFailureReparentsChildren(t *testing.T) {
	inner := simnet.NewChannelNet(0)
	shards := ringShards(9, 96, 443)
	cfg := treeConfig()
	cfg.Iters = 10
	// worker3 heads the middle subtree {worker3, worker4, worker5}.
	cfg.Net = &failNet{Net: inner, victim: workerName(3), after: 3}
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	inner.Close()
	if err != nil {
		t.Fatalf("aggregator failure aborted training: %v", err)
	}
	if res.Iters != cfg.Iters {
		t.Fatalf("iters = %d, want %d", res.Iters, cfg.Iters)
	}
	if len(res.Live) != 8 {
		t.Fatalf("live = %v, want the 8 survivors", res.Live)
	}
	if res.Faults.Reparents < 2 {
		t.Fatalf("reparents = %d, want ≥ 2 (worker4 and worker5 lost their aggregator); faults: %+v",
			res.Faults.Reparents, res.Faults)
	}
	for _, name := range []string{workerName(4), workerName(5)} {
		if res.Faults.Workers[name].Reparents < 1 {
			t.Fatalf("%s recorded no reparent: %+v", name, res.Faults.Workers[name])
		}
	}
}

// TestTreeTrainExitPathsReapWorkers extends the leak assertions to the
// tree paths: every Train exit (clean run, aggregator death) must reap
// all worker goroutines, including aggregators blocked in
// collectChildren.
func TestTreeTrainExitPathsReapWorkers(t *testing.T) {
	before := goroutineBaseline()
	t.Run("clean", func(t *testing.T) {
		shards := ringShards(9, 64, 449)
		cfg := treeConfig()
		cfg.Iters = 4
		if _, err := Train(shards, gan.RingMLP(), cfg, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("aggregator-death", func(t *testing.T) {
		inner := simnet.NewChannelNet(0)
		defer inner.Close()
		shards := ringShards(9, 64, 457)
		cfg := treeConfig()
		cfg.Iters = 8
		cfg.Net = &failNet{Net: inner, victim: workerName(0), after: 2}
		if _, err := Train(shards, gan.RingMLP(), cfg, nil); err != nil {
			t.Fatal(err)
		}
	})
	assertNoGoroutineLeak(t, before)
}

// TestTreeValidation: the tree composes with the synchronous engines
// and mean aggregation only.
func TestTreeValidation(t *testing.T) {
	shards := ringShards(4, 64, 461)
	cfg := treeConfig()
	cfg.Async = true
	if _, err := Train(shards, gan.RingMLP(), cfg, nil); err == nil {
		t.Fatal("tree + async accepted")
	}
	cfg = treeConfig()
	cfg.Aggregate = AggMedian
	if _, err := Train(shards, gan.RingMLP(), cfg, nil); err == nil {
		t.Fatal("tree + median accepted")
	}
	// The "flat" spec is the star: it must NOT reject median.
	cfg = baseConfig()
	topo, err := cluster.ParseTopology("flat", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = topo
	cfg.Aggregate = AggMedian
	cfg.Iters = 2
	if _, err := Train(shards, gan.RingMLP(), cfg, nil); err != nil {
		t.Fatalf("flat topology rejected a legal config: %v", err)
	}
}

// TestChaosSoakTree is the chaos soak run under a depth-2 tree: seeded
// drops, delays, duplicates, corrupted worker→server aggregates and a
// partition/heal cycle on an AGGREGATOR — the soak must complete every
// round, keep all workers, rehome the partitioned aggregator's leaves
// (reparents recorded) and land the generator on the ring.
func TestChaosSoakTree(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a long test")
	}
	before := goroutineBaseline()
	inner := simnet.NewChannelNet(0)
	chaos := simnet.WrapChaos(inner, simnet.ChaosConfig{
		Seed:         2026,
		Drop:         0.003,
		Corrupt:      0.003,
		Delay:        0.02,
		MaxDelay:     2 * time.Millisecond,
		Duplicate:    0.01,
		CorruptKinds: map[simnet.Kind]bool{simnet.WtoC: true},
		ProtectTypes: map[string]bool{msgStop: true, msgSwap: true},
	})
	shards := ringShards(9, 200, 607)
	cfg := treeConfig()
	cfg.Iters = 300
	cfg.Batch = 32
	cfg.Net = chaos
	cfg.RoundTimeout = 250 * time.Millisecond
	cfg.SuspectAfter = 8
	cfg.EvalEvery = 1
	// worker3 heads the middle subtree: the partition severs its two
	// leaves' only route to the server mid-run.
	partitioned := workerName(3)
	eval := func(it int, _ *gan.Generator) {
		switch it {
		case 120:
			chaos.Partition(partitioned)
		case 124:
			chaos.Heal()
		}
	}
	res, err := Train(shards, gan.RingMLP(), cfg, eval)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != cfg.Iters {
		t.Fatalf("applied %d updates, want %d", res.Iters, cfg.Iters)
	}
	if len(res.Live) != 9 {
		t.Fatalf("live = %v, want all 9 workers to survive transient chaos", res.Live)
	}
	if res.Faults.Timeouts < 1 || res.Faults.Rejoins < 1 {
		t.Fatalf("faults = %+v, want the partition to cost timeouts and a rejoin", res.Faults)
	}
	if res.Faults.Reparents < 2 {
		t.Fatalf("faults = %+v, want the partitioned aggregator's leaves reparented", res.Faults)
	}
	rng := rand.New(rand.NewSource(77))
	x, _ := res.G.Generate(256, rng, false)
	sum := 0.0
	for i := 0; i < x.Dim(0); i++ {
		sum += math.Hypot(x.At(i, 0), x.At(i, 1))
	}
	if mean := sum / float64(x.Dim(0)); mean < 1.2 || mean > 2.8 {
		t.Fatalf("mean radius %v under chaos, want the ring at ~2.0", mean)
	}
	chaos.Close()
	assertNoGoroutineLeak(t, before)
}
