package core

// Feedback-quality defense regression tests.
//
// The demotion soak is the tentpole's acceptance check: 2-of-8
// free-riders on a non-IID digit split, over a seeded ChaosNet, must be
// down-weighted and then demoted through the strike budget — for every
// fabrication variant — while every honest worker survives with a
// near-zero suspicion. The strict-pin test proves the defense is
// bitwise inert without attackers, and the fingerprint test pins the
// property replay detection depends on: the FP32-quantized hash
// survives the feedback wire round-trip under every compression mode.

import (
	"math/rand"
	"testing"
	"time"

	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// digitsDefenseConfig is the shared soak setup: 8 workers on a heavily
// non-IID synthetic digit split (skew 0.8 — the hard case for the
// cosine test, since honest feedbacks already disagree more than under
// IID shards).
func digitsDefenseConfig(t *testing.T, iters int) ([]*dataset.Dataset, Config) {
	t.Helper()
	ds := dataset.SynthDigits(640, 1)
	shards := dataset.SplitNonIID(ds, 8, 0.8, 2)
	cfg := baseConfig()
	cfg.Iters = iters
	cfg.Batch = 16
	cfg.K = 2
	cfg.Defense = true
	return shards, cfg
}

// TestDefenseDemotesFreeRiders: each fabrication variant, injected at
// workers 2 and 5 of 8, must be caught by the cross-round scorer —
// first down-weighted, then demoted through the corrupt-frame strike
// budget — while the six honest workers survive untouched. The run
// rides a seeded ChaosNet (drops, delays, duplicates) to prove the
// defense composes with the transient-fault machinery instead of
// misfiring on its noise.
func TestDefenseDemotesFreeRiders(t *testing.T) {
	if testing.Short() {
		t.Skip("defense soak is a long test")
	}
	attackers := []int{2, 5}
	for _, tc := range []struct {
		name string
		mode ByzantineMode
	}{
		{"random", FreeRiderRandom},
		{"replay", FreeRiderReplay},
		{"noise", FreeRiderScaledNoise},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := goroutineBaseline()
			inner := simnet.NewChannelNet(0)
			chaos := simnet.WrapChaos(inner, simnet.ChaosConfig{
				Seed:      2026,
				Drop:      0.002,
				Delay:     0.02,
				MaxDelay:  2 * time.Millisecond,
				Duplicate: 0.01,
				// No payload corruption: a corrupt frame strikes its
				// sender through the same budget the defense uses, which
				// would conflate the two demotion paths this test tells
				// apart.
				ProtectTypes: map[string]bool{msgStop: true, msgSwap: true},
			})
			shards, cfg := digitsDefenseConfig(t, 24)
			cfg.Net = chaos
			cfg.RoundTimeout = 250 * time.Millisecond
			cfg.Byzantine = map[int]ByzantineMode{}
			for _, i := range attackers {
				cfg.Byzantine[i] = tc.mode
			}
			res, err := Train(shards, gan.ScaledMLP(32), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iters != cfg.Iters {
				t.Fatalf("applied %d updates, want %d", res.Iters, cfg.Iters)
			}
			if res.Faults.FreeRidersDemoted != len(attackers) {
				t.Fatalf("faults = %+v, want both free-riders demoted", res.Faults)
			}
			if res.Faults.DownWeighted == 0 {
				t.Fatalf("faults = %+v: demotion must pass through the reversible down-weight rung first", res.Faults)
			}
			for _, i := range attackers {
				name := workerName(i)
				if contains(res.Live, name) {
					t.Fatalf("live = %v: free-rider %s survived", res.Live, name)
				}
				d, ok := res.Faults.Defense[name]
				if !ok || !d.Demoted {
					t.Fatalf("defense snapshot for %s = %+v, want demoted", name, d)
				}
				if tc.mode == FreeRiderReplay && d.ReplayHits == 0 {
					t.Fatalf("replay free-rider %s demoted without a fingerprint hit: %+v", name, d)
				}
			}
			for i := 0; i < 8; i++ {
				name := workerName(i)
				if i == attackers[0] || i == attackers[1] {
					continue
				}
				if !contains(res.Live, name) {
					t.Fatalf("live = %v: honest worker %s was demoted", res.Live, name)
				}
				if d := res.Faults.Defense[name]; d.Suspicion >= defaultDownWeightAt {
					t.Fatalf("honest worker %s ended at suspicion %.3f — the defense would down-weight it", name, d.Suspicion)
				}
			}
			chaos.Close()
			assertNoGoroutineLeak(t, before)
		})
	}
}

// TestDefenseFaultFreeKeepsStrictPin: with zero attackers, enabling the
// defense must not move a single bit — the scorer observes every round
// but returns nil weights while nobody crosses the down-weight
// threshold, keeping the engine on the legacy arithmetic path pinned to
// serial Algorithm 1.
func TestDefenseFaultFreeKeepsStrictPin(t *testing.T) {
	run := func(defense bool) []float64 {
		shards := ringShards(4, 96, 443)
		cfg := baseConfig()
		cfg.Iters = 10
		cfg.SwapEvery = 1
		cfg.Defense = defense
		res, err := Train(shards, gan.RingMLP(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults.DownWeighted != 0 || res.Faults.FreeRidersDemoted != 0 {
			t.Fatalf("attack-free run tripped the defense: %+v", res.Faults)
		}
		if defense && len(res.Faults.Defense) != 4 {
			t.Fatalf("defense snapshots = %v, want all 4 workers scored", res.Faults.Defense)
		}
		return nn.ParamVector(res.G.Net.Params())
	}
	plain, defended := run(false), run(true)
	for i := range plain {
		if plain[i] != defended[i] {
			t.Fatalf("param %d: %g with defense vs %g without — the defense must be bitwise inert without attackers",
				i, defended[i], plain[i])
		}
	}
}

// TestReplayFingerprintSurvivesFP32: the replay detector hashes
// FP32-quantized elements precisely so that the fingerprint a worker's
// tensor would produce is the fingerprint the server computes after the
// wire round-trip — under the raw frame and the FP32-compressed frame
// alike. A replayed tensor must collide with itself across encodings;
// a fresh tensor must not.
func TestReplayFingerprintSurvivesFP32(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := tensor.New(16, 8)
	for i := range f.Data {
		f.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	want := feedbackFingerprint(f)
	for _, mode := range []Compression{CompressNone, CompressFP32} {
		got, err := decodeFeedbackAny(encodeFeedbackCompressed(f, mode), f.Shape())
		if err != nil {
			t.Fatal(err)
		}
		if fp := feedbackFingerprint(got); fp != want {
			t.Fatalf("fingerprint changed across the %v wire round-trip: %x vs %x", mode, fp, want)
		}
	}
	// Sensitivity control: one element nudged by a float32-visible ulp
	// must change the fingerprint.
	g := f.Clone()
	g.Data[5] += 1e-3
	if feedbackFingerprint(g) == want {
		t.Fatal("fingerprint blind to a changed element — replay detection is vacuous")
	}
}

// TestDefensePenaltyRamps pins the scoring primitives' endpoints and
// interior slopes.
func TestDefensePenaltyRamps(t *testing.T) {
	if rampDown(0.05, 0.05, 0.25) != 1 || rampDown(0.25, 0.05, 0.25) != 0 {
		t.Fatal("rampDown endpoints")
	}
	if got := rampDown(0.15, 0.05, 0.25); got <= 0.49 || got >= 0.51 {
		t.Fatalf("rampDown midpoint = %v", got)
	}
	if rampUp(1, 1, 2) != 0 || rampUp(2, 1, 2) != 1 {
		t.Fatal("rampUp endpoints")
	}
	if got := rampUp(1.5, 1, 2); got <= 0.49 || got >= 0.51 {
		t.Fatalf("rampUp midpoint = %v", got)
	}
}
