package core

// Temporary-discriminator regression tests: graceful retirement at a
// scheduled round boundary (final feedback counted, swap rendezvous
// already resolved, no fault recorded, no goroutine leaked) and the Qu
// et al. joiner warm-up ramp.

import (
	"testing"

	"mdgan/internal/cluster"
	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/simnet"
)

// TestRetirementReleasesSwapRendezvous: with swaps every iteration, a
// mid-run retiree leaves through its own main loop — the run must
// complete every round, the swap rendezvous of the retiree's last round
// must resolve (no deadlock), the departure must be accounted as a
// Retirement (never a fault), and nothing may leak.
func TestRetirementReleasesSwapRendezvous(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		name := "strict"
		if pipeline {
			name = "pipelined"
		}
		t.Run(name, func(t *testing.T) {
			before := goroutineBaseline()
			shards := ringShards(4, 96, 449)
			cfg := baseConfig()
			cfg.Iters = 12
			cfg.SwapEvery = 1
			cfg.Pipeline = pipeline
			cfg.Lifetimes = map[int]cluster.Lifetime{1: {Retire: 6}}
			res, err := Train(shards, gan.RingMLP(), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iters != cfg.Iters {
				t.Fatalf("applied %d updates, want %d — retirement must not stall the round loop", res.Iters, cfg.Iters)
			}
			if contains(res.Live, workerName(1)) {
				t.Fatalf("live = %v: the retiree is still listed", res.Live)
			}
			if len(res.Live) != 3 {
				t.Fatalf("live = %v, want the 3 remaining workers", res.Live)
			}
			if res.Faults.Retirements != 1 || res.Faults.Workers[workerName(1)].Retirements != 1 {
				t.Fatalf("faults = %+v, want exactly one recorded retirement", res.Faults)
			}
			if res.Faults.Any() {
				t.Fatalf("a scheduled retirement is not a fault, got %+v", res.Faults)
			}
			assertNoGoroutineLeak(t, before)
		})
	}
}

// TestRetirementFinalFeedbackCounted pins the boundary semantics via
// message accounting: retiring at the START of iteration 5 means
// iterations 1–4 carry the retiree's feedback and 5–8 do not.
func TestRetirementFinalFeedbackCounted(t *testing.T) {
	shards := ringShards(3, 96, 457)
	cfg := baseConfig()
	cfg.Iters = 8
	cfg.SwapEvery = -1
	cfg.Lifetimes = map[int]cluster.Lifetime{2: {Retire: 5}}
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantWtoC := int64(4*3 + 4*2)
	if got := res.Traffic.Msgs[simnet.WtoC]; got != wantWtoC {
		t.Fatalf("W→C msgs = %d, want %d (4 rounds of 3 feedbacks, then 4 of 2)", got, wantWtoC)
	}
}

// TestRetirementOfJoinerClosesItsWindow: a temporary discriminator that
// both joins and retires inside the run — the full Qu et al. lifetime —
// leaves the original workers as the survivors.
func TestRetirementOfJoinerClosesItsWindow(t *testing.T) {
	before := goroutineBaseline()
	spare := dataset.GaussianRing(96, 8, 2.0, 0.05, 461)
	cfg := baseConfig()
	cfg.Iters = 14
	cfg.JoinAt = map[int][]*dataset.Dataset{4: {spare}}
	cfg.Lifetimes = map[int]cluster.Lifetime{2: {Join: 4, Retire: 10}}
	res, err := Train(ringShards(2, 96, 463), gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Live) != 2 || contains(res.Live, workerName(2)) {
		t.Fatalf("live = %v, want only the 2 original workers after the joiner retired", res.Live)
	}
	if res.Faults.Retirements != 1 || res.Faults.Any() {
		t.Fatalf("faults = %+v, want one retirement and no faults", res.Faults)
	}
	assertNoGoroutineLeak(t, before)
}

// TestLifetimeValidationAtTrain: the schedule is validated before any
// goroutine spawns.
func TestLifetimeValidationAtTrain(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"retire-not-after-join", func(c *Config) {
			c.JoinAt = map[int][]*dataset.Dataset{5: {dataset.GaussianRing(48, 8, 2.0, 0.05, 468)}}
			c.Lifetimes = map[int]cluster.Lifetime{2: {Join: 5, Retire: 5}}
		}},
		{"initial-worker-declares-join", func(c *Config) {
			c.Lifetimes = map[int]cluster.Lifetime{0: {Join: 3, Retire: 6}}
		}},
		{"lifetime-without-join-shard", func(c *Config) {
			c.Lifetimes = map[int]cluster.Lifetime{7: {Join: 3, Retire: 6}}
		}},
		{"join-iteration-mismatch", func(c *Config) {
			c.JoinAt = map[int][]*dataset.Dataset{5: {dataset.GaussianRing(48, 8, 2.0, 0.05, 469)}}
			c.Lifetimes = map[int]cluster.Lifetime{2: {Join: 4, Retire: 8}}
		}},
		{"async-mode", func(c *Config) {
			c.Async = true
			c.Lifetimes = map[int]cluster.Lifetime{0: {Retire: 4}}
		}},
		{"negative-warmup", func(c *Config) { c.JoinWarmup = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			cfg.Iters = 6
			tc.mut(&cfg)
			if _, err := Train(ringShards(2, 48, 467), gan.RingMLP(), cfg, nil); err == nil {
				t.Fatal("invalid config must be rejected")
			}
		})
	}
}

// TestJoinWarmupRampsJoinerWeight: the warm-up ramp must leave the
// pre-join prefix bitwise untouched (no joiner, no weights, legacy
// path) and must change the post-join trajectory relative to a
// full-weight join — the observable effect of down-weighting the fresh
// discriminator's feedback. The ramped run must also stay
// deterministic.
func TestJoinWarmupRampsJoinerWeight(t *testing.T) {
	run := func(warmup int) [][]float64 {
		spare := dataset.GaussianRing(96, 8, 2.0, 0.05, 479)
		cfg := baseConfig()
		cfg.Iters = 9
		cfg.EvalEvery = 1
		cfg.JoinAt = map[int][]*dataset.Dataset{6: {spare}}
		cfg.JoinWarmup = warmup
		var trace [][]float64
		eval := func(it int, g *gan.Generator) {
			trace = append(trace, nn.ParamVector(g.Net.Params()))
		}
		if _, err := Train(ringShards(2, 96, 487), gan.RingMLP(), cfg, eval); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	full, ramped := run(0), run(4)
	if len(full) != 9 || len(ramped) != 9 {
		t.Fatalf("trace lengths %d/%d, want 9", len(full), len(ramped))
	}
	// Pre-join prefix (iterations 1–5): bitwise identical.
	for it := 0; it < 5; it++ {
		for i := range full[it] {
			if full[it][i] != ramped[it][i] {
				t.Fatalf("iter %d param %d diverged before the join — warm-up must be inert pre-join", it+1, i)
			}
		}
	}
	// The join round itself: the ramp must bite (weight 1/4 vs 1).
	same := true
	for i := range full[5] {
		if full[5][i] != ramped[5][i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("warm-up ramp had no effect on the join round — test is vacuous")
	}
	again := run(4)
	for it := range ramped {
		for i := range ramped[it] {
			if ramped[it][i] != again[it][i] {
				t.Fatalf("warm-up run not deterministic at iter %d param %d", it+1, i)
			}
		}
	}
}
