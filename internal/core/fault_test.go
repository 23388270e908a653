package core

// Transient-fault regression tests.
//
// These pin the suspect/rejoin machinery end to end: a hung or muted
// worker no longer deadlocks Train (the round applies within
// RoundTimeout with the quorum in hand), a healed straggler is
// re-admitted and contributes again, a corrupt feedback frame strikes
// its sender instead of aborting the run, and the fault paths are
// provably inert on fault-free runs (bitwise strict pin with the
// deadline armed). The soak tests run both synchronous drivers at
// N = 8 over a seeded ChaosNet — random drops, delays, duplicates,
// payload corruption and one partition/heal cycle — and require full
// completion, ring convergence, a rejoin, and no goroutine leaks.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdgan/internal/cluster"
	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/parallel"
	"mdgan/internal/simnet"
)

// goroutineBaseline brings internal/parallel's helper goroutines to full
// strength and returns the goroutine count to compare against after
// the run. Helpers are persistent by design, not a leak, but they are
// spawned on demand — one each time a region's submitter finds no idle
// helper and fewer than GOMAXPROCS-1 alive — so the warm-up holds every
// range open until all GOMAXPROCS participants are inside the region.
// A helper already alive but not yet parked misses the offer; then the
// set is full anyway and the timeout lets the region finish short.
func goroutineBaseline() int {
	p := runtime.GOMAXPROCS(0)
	var arrived atomic.Int32
	all := make(chan struct{})
	parallel.ForceFor(p, func(int, int) {
		if int(arrived.Add(1)) == p {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(time.Second):
		}
	})
	return runtime.NumGoroutine()
}

// assertNoGoroutineLeak polls until the goroutine count is back at the
// pre-test level (workers exit asynchronously after stop/crash).
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// framings are the two ways a worker's contribution reaches the server
// directly: a bare feedback frame on the star, and a single-contributor
// aggregate under the star's plan spelled out as a depth-1 tree. The
// deadline, escalation and corrupt-strike regressions run over both
// with the same expectations — there is one collect behind them.
var framings = []struct {
	name string
	topo *cluster.Tree
}{
	{"feedback", nil},
	{"aggregate", &cluster.Tree{Depth: 1}},
}

// isContribution reports whether msg carries a worker's round
// contribution in either framing.
func isContribution(msg simnet.Message) bool {
	return msg.Type == msgFeedback || msg.Type == msgAgg
}

// muteNet silently swallows the victim's first `mute` contribution
// frames (a transient straggler: alive, computing, but its results never
// reach the server), then lets everything through.
type muteNet struct {
	simnet.Net
	victim string
	mu     sync.Mutex
	mute   int
	muted  int
	passed int // victim feedbacks delivered after the mute window
}

func (n *muteNet) Send(msg simnet.Message) error {
	if msg.From == n.victim && isContribution(msg) {
		n.mu.Lock()
		if n.mute > 0 {
			n.mute--
			n.muted++
			n.mu.Unlock()
			return nil
		}
		n.passed++
		n.mu.Unlock()
	}
	return n.Net.Send(msg)
}

// blackholeNet swallows the victim's contributions AND pongs forever — a
// worker that accepts work but never answers, the shape that must
// escalate from suspect to demotion.
type blackholeNet struct {
	simnet.Net
	victim string
}

func (n *blackholeNet) Send(msg simnet.Message) error {
	if msg.From == n.victim && (isContribution(msg) || msg.Type == msgPong) {
		return nil
	}
	return n.Net.Send(msg)
}

// garbleNet truncates the victim's contribution payloads so they cannot
// decode (a corrupt frame, not merely wrong values). Every other
// worker's contribution is held until the victim's first garbled frame
// has been sent: the inbox is FIFO, so the receiver reads that frame
// before any clean one and the strike happens however long the
// scheduler starves the victim's goroutine (without the hold, the clean
// workers of an async run could finish every update first).
type garbleNet struct {
	simnet.Net
	victim string
	sent   chan struct{} // closed once the first garbled frame is sent
	once   sync.Once
}

func newGarbleNet(inner simnet.Net, victim string) *garbleNet {
	return &garbleNet{Net: inner, victim: victim, sent: make(chan struct{})}
}

func (n *garbleNet) Send(msg simnet.Message) error {
	if !isContribution(msg) {
		return n.Net.Send(msg)
	}
	if msg.From != n.victim {
		<-n.sent
		return n.Net.Send(msg)
	}
	msg.Payload = append([]byte(nil), msg.Payload[:3]...)
	err := n.Net.Send(msg)
	n.once.Do(func() { close(n.sent) })
	return err
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// TestRoundDeadlineSuspectsStragglerAndRejoins is the fails-on-pre-fix
// regression for the tentpole: a dispatched worker whose feedback never
// arrives used to block collect forever. With RoundTimeout set the
// round must apply with the quorum in hand, the straggler must be
// suspected (skipped for dispatch, state retained), and once its
// network heals it must be probed back in and contribute feedback to a
// later round.
func TestRoundDeadlineSuspectsStragglerAndRejoins(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		name := "strict"
		if pipeline {
			name = "pipelined"
		}
		t.Run(name, func(t *testing.T) {
			for _, fr := range framings {
				t.Run(fr.name, func(t *testing.T) {
					before := goroutineBaseline()
					inner := simnet.NewChannelNet(0)
					net := &muteNet{Net: inner, victim: workerName(0), mute: 2}
					shards := ringShards(4, 64, 401)
					cfg := baseConfig()
					cfg.Iters = 8
					cfg.Pipeline = pipeline
					cfg.Topology = fr.topo
					cfg.Net = net
					cfg.RoundTimeout = 150 * time.Millisecond
					res, err := Train(shards, gan.RingMLP(), cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					if res.Iters != cfg.Iters {
						t.Fatalf("applied %d updates, want %d — the deadline must not stall the round loop", res.Iters, cfg.Iters)
					}
					if res.Faults.Timeouts < 2 || res.Faults.Suspects < 2 {
						t.Fatalf("faults = %+v, want >=2 timeouts and suspects for 2 muted feedbacks", res.Faults)
					}
					if res.Faults.Rejoins < 1 {
						t.Fatalf("faults = %+v, want at least one rejoin after the mute window", res.Faults)
					}
					if !contains(res.Live, net.victim) {
						t.Fatalf("live = %v: the healed straggler must be re-admitted, not demoted", res.Live)
					}
					net.mu.Lock()
					passed := net.passed
					net.mu.Unlock()
					if passed < 1 {
						t.Fatal("the rejoined worker never contributed a feedback after healing")
					}
					inner.Close()
					assertNoGoroutineLeak(t, before)
				})
			}
		})
	}
}

// TestRoundDeadlineEscalatesToDemotion: a worker that never answers —
// not even probes — must not be suspected forever. SuspectAfter
// consecutive misses demote it fail-stop style and the run completes
// with the survivors.
func TestRoundDeadlineEscalatesToDemotion(t *testing.T) {
	for _, fr := range framings {
		t.Run(fr.name, func(t *testing.T) {
			before := goroutineBaseline()
			inner := simnet.NewChannelNet(0)
			net := &blackholeNet{Net: inner, victim: workerName(0)}
			shards := ringShards(3, 64, 409)
			cfg := baseConfig()
			cfg.Iters = 6
			cfg.Topology = fr.topo
			cfg.Net = net
			cfg.RoundTimeout = 60 * time.Millisecond
			cfg.SuspectAfter = 2
			res, err := Train(shards, gan.RingMLP(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iters != cfg.Iters {
				t.Fatalf("applied %d updates, want %d", res.Iters, cfg.Iters)
			}
			if res.Faults.Demotions != 1 {
				t.Fatalf("faults = %+v, want exactly one demotion", res.Faults)
			}
			if contains(res.Live, net.victim) {
				t.Fatalf("live = %v: a never-answering worker must be demoted", res.Live)
			}
			if res.Faults.Timeouts < cfg.SuspectAfter {
				t.Fatalf("faults = %+v, want >=%d timeout ticks before demotion", res.Faults, cfg.SuspectAfter)
			}
			inner.Close()
			assertNoGoroutineLeak(t, before)
		})
	}
}

// TestQuorumDecidesWhetherTheDeadlineApplies: Quorum is the count of
// contributions an expired round needs before it applies without the
// missing. With N = 4 and one worker muted for two rounds, Quorum 3 is
// met by the other three, so each expiry applies the round and the
// victim, suspected, rejoins once its frames get through. Quorum 4 is
// not met without the victim, so the wait continues through expiries
// until escalation demotes it. Both runs finish every iteration.
func TestQuorumDecidesWhetherTheDeadlineApplies(t *testing.T) {
	for _, tc := range []struct {
		quorum  int
		demoted bool
	}{
		{3, false},
		{4, true},
	} {
		t.Run(fmt.Sprintf("quorum=%d", tc.quorum), func(t *testing.T) {
			before := goroutineBaseline()
			inner := simnet.NewChannelNet(0)
			net := &muteNet{Net: inner, victim: workerName(0), mute: 2}
			cfg := baseConfig()
			cfg.Iters = 8
			cfg.Net = net
			cfg.RoundTimeout = 60 * time.Millisecond
			cfg.Quorum = tc.quorum
			res, err := Train(ringShards(4, 64, 431), gan.RingMLP(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iters != cfg.Iters {
				t.Fatalf("applied %d updates, want %d", res.Iters, cfg.Iters)
			}
			if live := contains(res.Live, net.victim); live == tc.demoted {
				t.Fatalf("victim live = %v, want %v (live %v)", live, !tc.demoted, res.Live)
			}
			if tc.demoted {
				if res.Faults.Demotions != 1 || res.Faults.Timeouts < cluster.DefaultSuspectAfter {
					t.Fatalf("faults = %+v, want one demotion after %d expiries", res.Faults, cluster.DefaultSuspectAfter)
				}
			} else if res.Faults.Demotions != 0 || res.Faults.Rejoins < 1 {
				t.Fatalf("faults = %+v, want no demotion and a rejoin", res.Faults)
			}
			inner.Close()
			assertNoGoroutineLeak(t, before)
		})
	}
}

// TestCorruptFeedbackKeepsTraining is the fails-on-pre-fix regression
// for the corrupt-frame satellite: an undecodable feedback used to
// abort the whole run with a decode error. It must instead strike the
// sender — immediate demotion on the legacy (RoundTimeout=0) path,
// suspect-then-demote within the strike budget on the deadline path —
// while the other workers keep training.
func TestCorruptFeedbackKeepsTraining(t *testing.T) {
	t.Run("legacy-demotes-immediately", func(t *testing.T) {
		for _, fr := range framings {
			t.Run(fr.name, func(t *testing.T) {
				before := goroutineBaseline()
				inner := simnet.NewChannelNet(0)
				net := newGarbleNet(inner, workerName(1))
				shards := ringShards(3, 64, 419)
				cfg := baseConfig()
				cfg.Iters = 5
				cfg.Topology = fr.topo
				cfg.Net = net
				res, err := Train(shards, gan.RingMLP(), cfg, nil)
				if err != nil {
					t.Fatalf("a corrupt feedback frame aborted the run: %v", err)
				}
				if res.Iters != cfg.Iters {
					t.Fatalf("applied %d updates, want %d", res.Iters, cfg.Iters)
				}
				if res.Faults.CorruptFrames < 1 {
					t.Fatalf("faults = %+v, want a counted corrupt frame", res.Faults)
				}
				if contains(res.Live, net.victim) {
					t.Fatalf("live = %v: without a deadline a corrupt sender is failed outright", res.Live)
				}
				inner.Close()
				assertNoGoroutineLeak(t, before)
			})
		}
	})
	t.Run("deadline-strikes-then-demotes", func(t *testing.T) {
		for _, fr := range framings {
			t.Run(fr.name, func(t *testing.T) {
				before := goroutineBaseline()
				inner := simnet.NewChannelNet(0)
				net := newGarbleNet(inner, workerName(1))
				shards := ringShards(3, 64, 421)
				cfg := baseConfig()
				cfg.Iters = 8
				cfg.Topology = fr.topo
				cfg.Net = net
				// The victim garbles frames but still answers every round, so
				// the deadline should never fire — it is armed only to select
				// the suspect-then-demote strike path (generous, so it really
				// never expires). Strikes are asserted as corrupt + timeout
				// misses, not corrupt frames alone: after the first corrupt
				// strike the victim is probed, and on a loaded 1-CPU host its
				// pong can legitimately lose the scheduling race against the
				// next round's probe sweep, ticking a timeout miss that
				// consumes part of the budget. Demotion still must not come
				// before SuspectAfter total misses, and at least one of them
				// must be the corrupt-strike path this regression test exists
				// for.
				cfg.RoundTimeout = 2 * time.Second
				cfg.SuspectAfter = 2
				res, err := Train(shards, gan.RingMLP(), cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Iters != cfg.Iters {
					t.Fatalf("applied %d updates, want %d", res.Iters, cfg.Iters)
				}
				if res.Faults.CorruptFrames < 1 || res.Faults.CorruptFrames+res.Faults.Timeouts < cfg.SuspectAfter {
					t.Fatalf("faults = %+v, want a corrupt strike and >=%d total misses before demotion", res.Faults, cfg.SuspectAfter)
				}
				if res.Faults.Demotions != 1 || contains(res.Live, net.victim) {
					t.Fatalf("faults = %+v live = %v: the striker must be demoted at the budget", res.Faults, res.Live)
				}
				inner.Close()
				assertNoGoroutineLeak(t, before)
			})
		}
	})
}

// TestDeadlineFaultFreeKeepsStrictPin: arming RoundTimeout on a
// fault-free run must not touch the deterministic contract — same
// rounds, same RNG stream, bitwise-identical generator parameters to
// the RoundTimeout=0 run. The fault paths activate only on faults.
func TestDeadlineFaultFreeKeepsStrictPin(t *testing.T) {
	run := func(timeout time.Duration) []float64 {
		shards := ringShards(4, 96, 431)
		cfg := baseConfig()
		cfg.Iters = 10
		cfg.SwapEvery = 1
		cfg.RoundTimeout = timeout
		res, err := Train(shards, gan.RingMLP(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults.Any() {
			t.Fatalf("fault-free run recorded faults: %+v", res.Faults)
		}
		return nn.ParamVector(res.G.Net.Params())
	}
	plain, armed := run(0), run(2*time.Second)
	for i := range plain {
		if plain[i] != armed[i] {
			t.Fatalf("param %d: %g with deadline vs %g without — RoundTimeout must be inert without faults",
				i, armed[i], plain[i])
		}
	}
}

// TestAsyncTimeoutDemotesUnresponsiveWorkers is the async counterpart
// of the deadline regression: with every outstanding feedback lost, the
// async loop used to block on the inbox forever. The timeout must tick
// the pending workers to suspicion and on to demotion, and Train must
// return cleanly once nobody is left.
func TestAsyncTimeoutDemotesUnresponsiveWorkers(t *testing.T) {
	before := goroutineBaseline()
	inner := simnet.NewChannelNet(0)
	// Mute all three workers: victim selection per message type.
	net := &blackholeNet{Net: &blackholeNet{Net: &blackholeNet{Net: inner,
		victim: workerName(0)}, victim: workerName(1)}, victim: workerName(2)}
	shards := ringShards(3, 64, 433)
	cfg := baseConfig()
	cfg.Iters = 10
	cfg.Async = true
	cfg.Net = net
	cfg.RoundTimeout = 40 * time.Millisecond
	cfg.SuspectAfter = 2
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 0 {
		t.Fatalf("applied %d updates with every feedback lost", res.Iters)
	}
	if res.Faults.Demotions != 3 || len(res.Live) != 0 {
		t.Fatalf("faults = %+v live = %v, want all three workers demoted", res.Faults, res.Live)
	}
	if res.Faults.Timeouts < 2*3 {
		t.Fatalf("faults = %+v, want two timeout ticks per worker", res.Faults)
	}
	inner.Close()
	assertNoGoroutineLeak(t, before)
}

// TestAsyncCorruptFeedbackKeepsTraining: the async loop's corrupt-frame
// path — strike, demote, continue with the survivors.
func TestAsyncCorruptFeedbackKeepsTraining(t *testing.T) {
	before := goroutineBaseline()
	inner := simnet.NewChannelNet(0)
	net := newGarbleNet(inner, workerName(2))
	shards := ringShards(3, 64, 439)
	cfg := baseConfig()
	// garbleNet holds the clean workers' feedbacks until the victim's
	// first garbled frame is in the server's inbox, so the strike this
	// test asserts happens however the victim's goroutine is scheduled.
	cfg.Iters = 96
	cfg.Async = true
	cfg.Net = net
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatalf("a corrupt async feedback aborted the run: %v", err)
	}
	if res.Iters != cfg.Iters {
		t.Fatalf("applied %d updates, want %d from the two clean workers", res.Iters, cfg.Iters)
	}
	if res.Faults.CorruptFrames < 1 || contains(res.Live, net.victim) {
		t.Fatalf("faults = %+v live = %v", res.Faults, res.Live)
	}
	inner.Close()
	assertNoGoroutineLeak(t, before)
}

// TestChaosSoak: both synchronous drivers at N=8 over a seeded
// ChaosNet — random drops, delays, duplicates, corrupted worker→server
// payloads, and one partition/heal cycle on worker3 mid-run — must
// complete every round, keep all eight workers in the membership,
// re-admit the partitioned worker, land the generator on the ring, and
// leak nothing. Deterministic by construction: the fault stream is
// seeded and delays are far shorter than the round deadline.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is a long test")
	}
	for _, pipeline := range []bool{false, true} {
		name := "strict"
		if pipeline {
			name = "pipelined"
		}
		t.Run(name, func(t *testing.T) {
			before := goroutineBaseline()
			inner := simnet.NewChannelNet(0)
			chaos := simnet.WrapChaos(inner, simnet.ChaosConfig{
				Seed:      2025,
				Drop:      0.003,
				Corrupt:   0.003,
				Delay:     0.02,
				MaxDelay:  2 * time.Millisecond,
				Duplicate: 0.01,
				// Corrupt only worker→server frames: a corrupted swap
				// payload is indistinguishable from a poisoned model, and
				// the swap rendezvous resolves corruption as cancellation
				// (tested separately in the worker suite).
				CorruptKinds: map[simnet.Kind]bool{simnet.WtoC: true},
				// stop must always land (shutdown); swaps are protected so
				// a dropped W→W frame cannot demote a healthy receiver —
				// transports retry them, the chaos layer models the
				// post-retry residual.
				ProtectTypes: map[string]bool{msgStop: true, msgSwap: true},
			})
			shards := ringShards(8, 200, 601)
			cfg := baseConfig()
			cfg.Iters = 300
			cfg.Batch = 32
			cfg.Pipeline = pipeline
			cfg.Net = chaos
			cfg.RoundTimeout = 250 * time.Millisecond
			cfg.SuspectAfter = 8
			cfg.EvalEvery = 1
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
			if len(res.Live) != 8 {
				t.Fatalf("live = %v, want all 8 workers to survive transient chaos", res.Live)
			}
			if res.Faults.Timeouts < 1 || res.Faults.Rejoins < 1 {
				t.Fatalf("faults = %+v, want the partition to cost timeouts and a rejoin", res.Faults)
			}
			stats := chaos.Stats()
			if stats.Dropped == 0 || stats.Delayed == 0 || stats.Duplicated == 0 {
				t.Fatalf("chaos stats %+v: the fault stream never fired — soak is vacuous", stats)
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
		})
	}
}
