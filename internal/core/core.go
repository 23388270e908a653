// Package core implements MD-GAN (Algorithm 1 of the paper): a single
// generator hosted on a central server trained against N discriminators
// living on workers that hold immovable data shards. Each global
// iteration the server generates k ≤ N batches, distributes two per
// worker (SPLIT, §IV-B1), workers run L discriminator steps and return
// error feedbacks F_n (§IV-B2), the server merges the feedbacks into a
// generator gradient and applies Adam. Every E epochs discriminators
// swap between workers in a gossip fashion (SWAP, §IV-C1).
//
// The synchronous iteration is driven by a round engine (engine.go):
// one loop that runs Algorithm 1's stages — prepare (membership),
// generate, route, dispatch, collect, apply — over buffers owned by the
// engine. In strict mode it keeps Algorithm 1's barrier semantics
// bit-for-bit (pinned by a serial-reference equivalence test);
// Config.Pipeline moves one step, generating round t+1 while the
// workers compute round t, at the cost of one iteration of
// generator-parameter staleness (pinned against the same replay on
// that schedule). Cluster membership (crashes, joins, sampling,
// straggler demotion) lives in the shared internal/cluster package,
// which FL-GAN uses too.
//
// # Failure model
//
// Two failure classes are tolerated (the taxonomy and the suspect
// lifecycle diagram live in the cluster package doc):
//
//   - Fail-stop: scheduled crashes (Config.CrashAt, Fig. 5) and
//     unrecoverable transport deaths. The worker and its shard are gone
//     for the rest of the run.
//   - Transient (Config.RoundTimeout > 0): stragglers, dropped or
//     corrupt frames, short partitions. collect waits at most
//     RoundTimeout per round; on expiry the missing workers become
//     suspects — skipped for dispatch, state retained, probed each
//     round (ping/pong) — and the round is applied with the feedbacks
//     in hand once at least Config.Quorum (default 1) arrived, below
//     that the wait continues. A suspect that shows evidence of life (a
//     pong, feedback or aggregate) is reinstated; Config.SuspectAfter
//     consecutive misses escalate it to a permanent, fail-stop demotion.
//     apply already scales by received count, so quorum rounds degrade
//     gracefully rather than skewing the update.
//
// Every fault above is decided by what a node does with a message that
// arrives early, late or garbled, and each node states that once: a
// worker reads its inbox only through worker.recv, whose worker.triage
// holds the whole round-tag policy over one stash; the server reads its
// inbox only through server.recv, decides liveness in server.evidence
// and charges corrupt frames in server.strike.
//
// Determinism caveat: the fault paths activate only on actual faults.
// A fault-free run with RoundTimeout set traverses exactly the
// pre-deadline code path (no suspicion, no probes, identical RNG
// stream), so the strict engine's bitwise pin holds with the deadline
// armed. A run that does hit faults is not repeatable: simnet.ChaosNet
// seeds its stream of draws, but which message each draw lands on, and
// which round deadlines expire, depend on scheduling (ROADMAP item
// 6(b)).
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"mdgan/internal/cluster"
	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/opt"
	"mdgan/internal/simnet"
)

// Config configures an MD-GAN run. It embeds the hyper-parameters
// shared with the baselines (gan.TrainConfig) and the knobs only MD-GAN
// reads (Engine). The direct fields are the ones the baselines share
// (CrashAt, ActivePerRound, Net) or nearly every caller sets (K,
// SwapEvery), so they stay flat on this type and on the mdgan facade's
// Options, which embeds the same Engine.
type Config struct {
	gan.TrainConfig
	// K is the number of generated batches per global iteration
	// (k ≤ N). 0 selects the paper's default k = max(1, ⌊ln N⌋).
	K int
	// SwapEvery is E, the number of local epochs between discriminator
	// swaps. 0 selects E = 1; a negative value disables swapping
	// entirely (the Fig. 4 "no swap" ablation).
	SwapEvery int
	// CrashAt schedules fail-stop worker crashes: iteration → indices
	// of workers to kill at the start of that iteration. Crashed
	// workers' shards disappear with them (Fig. 5).
	CrashAt map[int][]int
	// ActivePerRound, when in (0, N), activates only a uniform random
	// subset of workers each iteration (the §VII.4 adaptation of
	// federated learning's client sampling: fewer active
	// discriminators than workers, the whole dataset still covered
	// over time). 0 activates everyone.
	ActivePerRound int
	// Net supplies the transport; nil selects an in-process ChannelNet.
	Net simnet.Net
	Engine
}

// Engine holds the settings only MD-GAN reads — the §IV-A dynamic
// joins and the §VII extensions — declared once here and embedded both
// by Config and by the mdgan facade's Options. The zero value is the
// paper's strict synchronous Algorithm 1 on a flat star.
type Engine struct {
	// JoinAt schedules dynamic worker joins (§IV-A): iteration → data
	// shards, one new worker per shard, each entering with a copy of a
	// random live worker's discriminator. Synchronous mode only
	// (strict or pipelined).
	JoinAt map[int][]*dataset.Dataset
	// Async enables the asynchronous variant sketched in §VII.1: the
	// server applies a generator update per arriving feedback instead
	// of waiting for all workers.
	Async bool
	// Pipeline enables one-round-deep pipelining of the synchronous
	// engine (the other §VII.1 relaxation: "fresh batches of data can
	// be generated frequently, so that they can be sent to idle
	// workers"): the round loop's generate for round t+1 moves to just
	// after round t's dispatch, so the server generates and encodes
	// while the workers compute. Contract: round t+1's batches come
	// from parameters exactly ONE generator update stale (they miss
	// round t's update), and round t's feedbacks backpropagate through
	// parameters one update newer than the ones that produced its
	// batches — the stale-gradient trade-off of asynchronous parameter
	// servers (Async shares it), bounded here at one update. Membership,
	// routing and aggregation are decided at the same round boundaries
	// as strict mode. Both schedules are pinned bitwise against a serial
	// replay. False (the default) runs the paper's strict barrier loop.
	// Mutually exclusive with Async.
	Pipeline bool
	// Compress selects the error-feedback wire encoding (§VII.2
	// extension): CompressNone (default), CompressFP32 or CompressTopK.
	Compress Compression
	// SwapPrec selects the wire element width of discriminator swap
	// (and join-clone) payloads. The default SwapFP32 ships 4-byte
	// elements — halving Table III's W→W row on the float64 build, a
	// no-op under -tags f32; SwapNative keeps swaps bit-exact at the
	// compiled width.
	SwapPrec SwapPrecision
	// Byzantine marks compromised workers (§VII.3): worker index →
	// attack mode. Compromised workers corrupt their error feedback.
	Byzantine map[int]ByzantineMode
	// Aggregate selects the server's feedback-merge rule: AggMean
	// (the paper's averaging) or a Byzantine-tolerant alternative.
	Aggregate Aggregation
	// RoundTimeout, when > 0, bounds each round's wait for feedbacks:
	// on expiry the missing workers are suspected (skipped for
	// dispatch, state retained, probed back in) and the round is
	// applied with the feedbacks it has, subject to Quorum. 0 (the
	// default) waits forever — the strict fail-stop-only mode whose
	// deterministic replay the bitwise pin tests. The deadline path
	// activates only on actual faults, so a fault-free run is bitwise
	// identical either way. In async mode the timeout bounds the wait
	// for ANY feedback, ticking every outstanding worker on expiry.
	RoundTimeout time.Duration
	// Quorum is the minimum number of feedbacks needed to apply a round
	// whose deadline expired (≤ 0 = 1). Below quorum the round keeps
	// waiting — bounded by SuspectAfter escalations demoting the
	// workers that never answer. Synchronous engines only.
	Quorum int
	// SuspectAfter is the number of consecutive misses that escalate a
	// suspect to permanent demotion (0 = cluster.DefaultSuspectAfter,
	// < 0 = never escalate). Also the corrupt-feedback strike budget.
	SuspectAfter int
	// Topology selects the feedback-aggregation tree (see the cluster
	// package's topology contract). nil is the paper's flat star: every
	// worker feeds the server directly with a bare feedback frame, the
	// wire bytes and arithmetic the serial-reference pin protects. A
	// cluster.Tree routes feedbacks through worker-hosted aggregators,
	// bounding the server's per-round ingress by its fan-in instead of
	// N; the server runs the same collect/apply over fewer, pre-summed
	// frames. Trees are for the synchronous engine only, and AggMean
	// only (partial sums commute with the mean, not with median-style
	// rules).
	Topology *cluster.Tree
	// SwapSched selects the SWAP pairing (nil = RingSwap, the paper's
	// cyclic permutation). Non-ring schedules are synchronous-only: the
	// async engine picks its swap peers per-feedback rather than
	// per-round.
	SwapSched SwapSchedule
	// Defense enables the server-side feedback-quality defense against
	// free-riders (defense.go). Synchronous flat-topology engines only:
	// the server must see per-worker feedbacks, which a tree pre-sums
	// away. Attack-free runs stay on the bitwise-pinned arithmetic path
	// whether the defense is on or off.
	Defense bool
	// Lifetimes bounds workers' participation windows (temporary
	// discriminators, Qu et al.): worker index → Lifetime. Joining
	// workers' Join rounds must match their JoinAt schedule; Retire
	// rounds end participation gracefully at the start of that
	// iteration. Synchronous engines only.
	Lifetimes map[int]cluster.Lifetime
	// JoinWarmup, when > 0, ramps a dynamic joiner's aggregation weight
	// linearly over its first JoinWarmup rounds (Qu et al.'s
	// generator-stability rule: a fresh discriminator's feedback is
	// noise to the generator at first). Flat topology only.
	JoinWarmup int
}

// EvalFunc observes the server's generator during training.
type EvalFunc func(iter int, g *gan.Generator)

// Result is the outcome of an MD-GAN run.
type Result struct {
	G *gan.Generator
	// Discs are the final discriminators of workers still alive, keyed
	// by worker name.
	Discs map[string]*gan.Discriminator
	// Traffic is the byte/message accounting snapshot (Tables III/IV).
	Traffic simnet.Traffic
	// Live lists the workers that survived the run.
	Live []string
	// Iters is the number of generator updates performed.
	Iters int
	// Faults is the run's fault accounting: per-worker timeout /
	// suspect / demotion / rejoin / corrupt-frame counters plus the
	// transport's send-retry count. Zero-valued on a fault-free run.
	Faults cluster.FaultStats
}

// DefaultK returns the paper's k = max(1, ⌊ln N⌋) (§IV-B4 chooses
// k = 1 or k = ⌊log N⌋).
func DefaultK(n int) int {
	k := int(math.Floor(math.Log(float64(n))))
	if k < 1 {
		k = 1
	}
	return k
}

// workerName formats the canonical node name of worker i.
func workerName(i int) string { return fmt.Sprintf("worker%d", i) }

// joinIters derives the worker index → join iteration assignment the
// engine will make for a JoinAt schedule: processJoins runs at
// ascending iterations and spawnJoiner hands out indices n, n+1, … in
// shard order, so the mapping is fully determined up front. Used to
// cross-check Lifetimes.
func joinIters(n int, joinAt map[int][]*dataset.Dataset) map[int]int {
	if len(joinAt) == 0 {
		return nil
	}
	its := make([]int, 0, len(joinAt))
	for it := range joinAt {
		its = append(its, it)
	}
	sort.Ints(its)
	out := make(map[int]int)
	idx := n
	for _, it := range its {
		for range joinAt[it] {
			out[idx] = it
			idx++
		}
	}
	return out
}

// retireSchedule resolves a Lifetimes map into the engine's iteration →
// worker-name retirement schedule (ascending index order per
// iteration, cluster.RetireesAt's contract).
func retireSchedule(lifetimes map[int]cluster.Lifetime) map[int][]string {
	if len(lifetimes) == 0 {
		return nil
	}
	out := make(map[int][]string)
	for _, lt := range lifetimes {
		if lt.Retire > 0 && out[lt.Retire] == nil {
			for _, idx := range cluster.RetireesAt(lifetimes, lt.Retire) {
				out[lt.Retire] = append(out[lt.Retire], workerName(idx))
			}
		}
	}
	return out
}

const serverName = "server"

// Train runs MD-GAN over the given shards (one per worker; len(shards)
// is N). The caller provides shards explicitly so scalability
// experiments control the data-vs-worker scaling (Fig. 4).
func Train(shards []*dataset.Dataset, arch gan.Arch, cfg Config, eval EvalFunc) (*Result, error) {
	// The run's one Config: Train fills in every default here, and the
	// server and workers read this copy. A nil Topology is the star.
	cfg.TrainConfig = cfg.TrainConfig.Defaults()
	cfg.Quorum = max(cfg.Quorum, 1)
	if cfg.SwapSched == nil {
		cfg.SwapSched = RingSwap{}
	}
	n := len(shards)
	if n == 0 {
		return nil, fmt.Errorf("core: no shards")
	}
	k := cfg.K
	if k == 0 {
		k = DefaultK(n)
	}
	if k > n {
		return nil, fmt.Errorf("core: k=%d exceeds N=%d", k, n)
	}
	swapE := cfg.SwapEvery
	if swapE == 0 {
		swapE = 1
	}

	if cfg.Async && len(cfg.JoinAt) > 0 {
		return nil, fmt.Errorf("core: dynamic worker join requires synchronous mode")
	}
	if cfg.Async && cfg.Pipeline {
		return nil, fmt.Errorf("core: Pipeline applies to the synchronous engine only")
	}
	if cfg.Topology != nil {
		if cfg.Async {
			return nil, fmt.Errorf("core: topology %q requires synchronous mode", cfg.Topology.Name())
		}
		if cfg.Aggregate != AggMean {
			return nil, fmt.Errorf("core: topology %q requires mean aggregation (partial sums do not commute with %s)", cfg.Topology.Name(), cfg.Aggregate)
		}
	}
	if cfg.SwapSched.Name() != "ring" && cfg.Async {
		return nil, fmt.Errorf("core: swap schedule %q requires synchronous mode", cfg.SwapSched.Name())
	}
	if cfg.Defense {
		if cfg.Async {
			return nil, fmt.Errorf("core: feedback-quality defense requires synchronous mode")
		}
		if cfg.Topology != nil {
			return nil, fmt.Errorf("core: feedback-quality defense requires the flat topology (a %s pre-sums per-worker feedbacks away)", cfg.Topology.Name())
		}
	}
	if cfg.JoinWarmup < 0 {
		return nil, fmt.Errorf("core: negative JoinWarmup %d", cfg.JoinWarmup)
	}
	if cfg.JoinWarmup > 0 && cfg.Topology != nil {
		return nil, fmt.Errorf("core: joiner warm-up requires the flat topology (a %s cannot reweight pre-summed contributions)", cfg.Topology.Name())
	}
	if len(cfg.Lifetimes) > 0 {
		if cfg.Async {
			return nil, fmt.Errorf("core: worker lifetimes require synchronous mode")
		}
		if err := cluster.ValidateLifetimes(cfg.Lifetimes, n, joinIters(n, cfg.JoinAt)); err != nil {
			return nil, err
		}
	}

	net := cfg.Net
	if net == nil {
		net = simnet.NewChannelNet(0)
		defer net.Close()
	}
	if err := net.Register(serverName); err != nil {
		return nil, err
	}

	// Build the GAN couple once; every worker starts from the same
	// discriminator parameters (§IV-A "for simplicity, we assume that
	// they are the same").
	couple := arch.NewGAN(cfg.Seed, cfg.GenLoss, 1)
	g := couple.G
	lc := couple.LossConfig

	// Spawn workers. The run's frame pools are shared by its server and
	// workers, and by nothing else.
	pools := framePools{feedback: newFramePool(2 * n), swap: newFramePool(2 * n)}
	workers := make([]*worker, n)
	for i := range workers {
		name := workerName(i)
		if err := net.Register(name); err != nil {
			return nil, err
		}
		workers[i] = newWorker(&cfg, pools, net, lc, couple.D, i, shards[i])
		go workers[i].run()
	}

	srv := &server{
		cfg:          &cfg,
		g:            g,
		optG:         opt.NewAdam(cfg.OptG),
		net:          net,
		pools:        pools,
		rng:          rand.New(rand.NewSource(cfg.Seed + 31)),
		k:            k,
		swapInterval: dataset.EpochIters(shards, swapE, cfg.Batch),
		eval:         eval,
		probes:       make(map[string]bool),
		retireAt:     retireSchedule(cfg.Lifetimes),
	}
	srv.m = cluster.New(net, srv.rng, cfg.CrashAt, cfg.ActivePerRound)
	if cfg.Defense {
		srv.defense = newDefense(srv.m)
	}
	srv.m.SetSuspectThreshold(cfg.SuspectAfter)
	for _, w := range workers {
		srv.m.Add(w.name)
	}
	nextIdx := n
	srv.spawn = spawnJoiner(&cfg, pools, net, lc, couple.D, &workers, &nextIdx)

	// Shutdown runs on EVERY exit path — the error returns used to
	// leak the worker goroutines whenever cfg.Net was caller-supplied
	// (no stop message was sent and wait() was never reached, and only
	// an internally-created net gets closed above).
	stopped := false
	shutdown := func() {
		if stopped {
			return
		}
		stopped = true
		srv.m.StopAll(serverName, msgStop)
		for _, w := range workers {
			w.wait()
		}
	}
	defer shutdown()

	var iters int
	var err error
	if cfg.Async {
		iters, err = srv.runAsync(cfg.Iters)
	} else {
		iters, err = srv.run(cfg.Iters, cfg.Pipeline)
	}
	if err != nil {
		return nil, err
	}

	// Stop surviving workers and collect their discriminators (their
	// goroutines must have exited before w.d is read).
	shutdown()
	discs := make(map[string]*gan.Discriminator)
	var liveNames []string
	for _, w := range workers {
		if srv.m.Alive(w.name) {
			discs[w.name] = w.d
			liveNames = append(liveNames, w.name)
		}
	}
	sort.Strings(liveNames)

	// Transports that retry sends (TCPNet, or a chaos wrapper over one)
	// expose the count for the fault accounting.
	var retries int64
	if rc, ok := net.(interface{ Retries() int64 }); ok {
		retries = rc.Retries()
	}

	faults := srv.m.Faults(retries)
	if srv.defense != nil {
		faults.Defense = srv.defense.snapshots()
	}
	return &Result{
		G:       g,
		Discs:   discs,
		Traffic: net.Snapshot(),
		Live:    liveNames,
		Iters:   iters,
		Faults:  faults,
	}, nil
}

// newWorker builds worker i over its shard. The discriminator starts as
// a clone of the shared template (for joiners it is overwritten by the
// donor's parameters before the first batch arrives).
func newWorker(cfg *Config, pools framePools, net simnet.Net, lc gan.LossConfig, template *gan.Discriminator, i int, shard *dataset.Dataset) *worker {
	return &worker{
		name:      workerName(i),
		d:         template.Clone(),
		lc:        lc,
		optD:      opt.NewAdam(cfg.OptD),
		sampler:   dataset.NewSampler(shard, cfg.Seed+7919*int64(i+1)),
		net:       net,
		cfg:       cfg,
		pools:     pools,
		byzantine: cfg.Byzantine[i],
		rng:       rand.New(rand.NewSource(cfg.Seed + 15485863*int64(i+1))),
		done:      make(chan struct{}),
	}
}
