package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

func ringShards(n int, samplesPerShard int, seed int64) []*dataset.Dataset {
	ds := dataset.GaussianRing(n*samplesPerShard, 8, 2.0, 0.05, seed)
	return dataset.Split(ds, n, seed+1)
}

func baseConfig() Config {
	return Config{
		TrainConfig: gan.TrainConfig{
			Batch: 16, Iters: 30, DiscSteps: 1,
			GenLoss: nn.GenLossNonSaturating,
			OptG:    opt.AdamConfig{LR: 1e-3}, OptD: opt.AdamConfig{LR: 4e-3},
			Seed: 7,
		},
		K: 2,
	}
}

func TestTrainRunsAndReportsResult(t *testing.T) {
	shards := ringShards(4, 200, 1)
	res, err := Train(shards, gan.RingMLP(), baseConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 30 {
		t.Fatalf("iters = %d", res.Iters)
	}
	if len(res.Live) != 4 || len(res.Discs) != 4 {
		t.Fatalf("live = %v", res.Live)
	}
	if res.Traffic.Total() == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestDefaultK(t *testing.T) {
	for _, c := range []struct{ n, k int }{{1, 1}, {2, 1}, {10, 2}, {25, 3}, {50, 3}} {
		if got := DefaultK(c.n); got != c.k {
			t.Fatalf("DefaultK(%d) = %d, want %d", c.n, got, c.k)
		}
	}
}

// TestFeedbackEquivalence is the heart of MD-GAN (§IV-B2): with k = N
// distinct batches and all workers holding IDENTICAL discriminators,
// one MD-GAN generator update must equal the update a standalone GAN
// computes by direct backprop of B̃(∪ X^(g)_n) through D∘G. We verify
// the equality of generator parameters after one iteration to float
// round-off. DiscSteps = 0 keeps D_n identical during the iteration and
// the MLP architecture is batch-decoupled, so equality is exact.
func TestFeedbackEquivalence(t *testing.T) {
	const (
		n    = 3
		b    = 8
		seed = 99
	)
	arch := gan.RingMLP()
	shards := ringShards(n, 100, 5)

	cfg := Config{
		TrainConfig: gan.TrainConfig{
			Batch: b, Iters: 1, DiscSteps: -1, // no D updates: keep D_n identical
			GenLoss: nn.GenLossNonSaturating,
			OptG:    opt.AdamConfig{LR: 1e-3},
			Seed:    seed,
		},
		K:         n, // every worker gets a distinct batch
		SwapEvery: -1,
	}
	res, err := Train(shards, arch, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: reconstruct the same initial couple and replay the
	// server's batch generation with the same RNG stream, then do one
	// monolithic generator step on the union batch.
	couple := arch.NewGAN(seed, cfg.GenLoss, 1)
	rng := rand.New(rand.NewSource(seed + 31)) // server RNG seed offset
	zs := make([]*tensor.Tensor, n)
	for j := 0; j < n; j++ {
		zs[j], _ = couple.G.SampleZ(b, rng)
	}
	// Union feedback: mean of per-batch feedbacks (each already a
	// per-batch mean), matching the server's 1/N merge.
	couple.G.ZeroGrads()
	for j := 0; j < n; j++ {
		xg := couple.G.Forward(zs[j], nil, true)
		fn, _ := gan.Feedback(couple.D, couple.LossConfig, xg, nil)
		couple.G.Forward(zs[j], nil, true) // restore caches
		couple.G.Backward(fn.Scale(1 / float64(n)))
	}
	optG := opt.NewAdam(cfg.OptG)
	optG.Step(couple.G.Params())

	got := nn.ParamVector(res.G.Net.Params())
	want := nn.ParamVector(couple.G.Net.Params())
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("generator param %d: distributed %g vs centralised %g", i, got[i], want[i])
		}
	}
}

// TestSplitRule checks §IV-B1: every worker receives two distinct
// batches whenever k > 1, following X^(g) = X^(n mod k),
// X^(d) = X^((n+1) mod k).
func TestSplitRule(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%10) + 2
		k := int(kRaw%uint8(n)) + 1
		if k < 2 {
			k = 2
		}
		for i := 0; i < n; i++ {
			gi := i % k
			di := (i + 1) % k
			if gi == di {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSattoloIsFixedPointFreePermutation checks the SWAP routing.
func TestSattoloIsFixedPointFreePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 3, 5, 10, 31} {
		names := make([]string, n)
		for i := range names {
			names[i] = workerName(i)
		}
		perm := sattolo(names, rng)
		if len(perm) != n {
			t.Fatalf("n=%d: %d entries", n, len(perm))
		}
		seen := map[string]bool{}
		for from, to := range perm {
			if from == to {
				t.Fatalf("n=%d: fixed point at %s", n, from)
			}
			if seen[to] {
				t.Fatalf("n=%d: %s receives two discriminators", n, to)
			}
			seen[to] = true
		}
	}
}

// TestSwapConservation verifies that after training with swaps enabled,
// the multiset of discriminators is a permutation of what it would be —
// i.e. every worker ends with exactly one discriminator and all are
// distinct objects.
func TestSwapConservation(t *testing.T) {
	shards := ringShards(4, 64, 9)
	cfg := baseConfig()
	cfg.Iters = 12
	cfg.SwapEvery = 1 // with m=64, b=16: swap every 4 iterations
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Discs) != 4 {
		t.Fatalf("%d discriminators for 4 workers", len(res.Discs))
	}
	seen := map[*gan.Discriminator]bool{}
	for _, d := range res.Discs {
		if d == nil || seen[d] {
			t.Fatal("discriminator lost or duplicated")
		}
		seen[d] = true
	}
}

// TestSwapActuallyMovesParameters runs two workers with wildly different
// data and verifies a swap changes which parameters live where, by
// comparing a no-swap run with a swap run.
func TestSwapActuallyMovesParameters(t *testing.T) {
	shards := ringShards(2, 64, 11)
	mk := func(swapEvery int) map[string]*gan.Discriminator {
		cfg := baseConfig()
		cfg.Iters = 8
		cfg.SwapEvery = swapEvery
		cfg.K = 1
		res, err := Train(shards, gan.RingMLP(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Discs
	}
	noSwap := mk(-1)
	withSwap := mk(1)
	// Identical seeds → identical worker-0 D only if no swap happened.
	a := nn.ParamVector(noSwap[workerName(0)].Trunk.Params())
	b := nn.ParamVector(withSwap[workerName(0)].Trunk.Params())
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("swap run produced identical worker-0 discriminator; swap is a no-op")
	}
}

// TestTrafficMatchesAnalyticModel validates the simnet counters against
// the closed-form Table III entries for a crash-free, swap-free run.
func TestTrafficMatchesAnalyticModel(t *testing.T) {
	const (
		n     = 3
		iters = 5
		b     = 8
	)
	shards := ringShards(n, 100, 13)
	cfg := baseConfig()
	cfg.Iters = iters
	cfg.Batch = b
	cfg.K = 2
	cfg.SwapEvery = -1
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Payload sizes: a batch tensor (b, 2) is 1 (dtype byte) + 4 + 4·2
	// + ElemBytes·b·2 bytes; labels are 4 bytes (zero count) each ×2;
	// swap-target string is 4 bytes, plus the 4-byte round tag, plus the
	// topology trailer (empty parent string + zero child count + batch
	// index + aggregation wait = 16 bytes on the flat star).
	// Feedback = one tensor frame.
	batchFrame := int64(1 + 4 + 4*2 + tensor.ElemBytes*b*2)
	batchesPayload := 2*batchFrame + 2*4 + 4 + 4 + 16
	feedbackPayload := batchFrame + 1 // +1: compression-mode prefix byte
	wantCtoW := int64(n*iters) * batchesPayload
	// The final stop messages are zero-payload, so bytes are unaffected.
	if got := res.Traffic.Bytes[simnet.CtoW]; got != wantCtoW {
		t.Fatalf("C→W bytes = %d, want %d", got, wantCtoW)
	}
	wantWtoC := int64(n*iters) * feedbackPayload
	if got := res.Traffic.Bytes[simnet.WtoC]; got != wantWtoC {
		t.Fatalf("W→C bytes = %d, want %d", got, wantWtoC)
	}
	if got := res.Traffic.Bytes[simnet.WtoW]; got != 0 {
		t.Fatalf("W→W bytes = %d with swaps disabled", got)
	}
	// Message counts: Table III says I iterations × N workers in each
	// direction (+ N stop messages C→W).
	if got := res.Traffic.Msgs[simnet.CtoW]; got != int64(n*iters+n) {
		t.Fatalf("C→W msgs = %d", got)
	}
	if got := res.Traffic.Msgs[simnet.WtoC]; got != int64(n*iters) {
		t.Fatalf("W→C msgs = %d", got)
	}
}

func TestSwapTrafficAccounting(t *testing.T) {
	const n = 4
	shards := ringShards(n, 64, 15)
	cfg := baseConfig()
	cfg.Batch = 16
	cfg.Iters = 8 // swap interval = 64·1/16 = 4 → swaps at 4 and 8
	cfg.SwapEvery = 1
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Traffic.Msgs[simnet.WtoW]; got != int64(2*n) {
		t.Fatalf("W→W msgs = %d, want %d", got, 2*n)
	}
	// Each swap payload is the serialised discriminator at the default
	// FP32 wire precision: equal sizes, and on the float64 build about
	// half the native |θ| framing.
	perSwap := res.Traffic.Bytes[simnet.WtoW] / (2 * n)
	d := gan.RingMLP().NewGAN(1, nn.GenLossNonSaturating, 0).D
	if want := swapPayloadSize(d, SwapFP32); perSwap != want {
		t.Fatalf("per-swap bytes = %d, want fp32 |θ| payload %d", perSwap, want)
	}
	if tensor.ElemBytes == 8 && perSwap >= nn.EncodedParamSize(d.Params(), tensor.NativeDType) {
		t.Fatalf("f64 build: fp32 swap %d bytes not below native %d", perSwap, nn.EncodedParamSize(d.Params(), tensor.NativeDType))
	}
}

// TestSwapNativeTrafficAccounting pins the opt-out: SwapNative restores
// the compiled-width |θ| payload of the original Table III accounting.
func TestSwapNativeTrafficAccounting(t *testing.T) {
	const n = 4
	shards := ringShards(n, 64, 15)
	cfg := baseConfig()
	cfg.Batch = 16
	cfg.Iters = 8
	cfg.SwapEvery = 1
	cfg.SwapPrec = SwapNative
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	perSwap := res.Traffic.Bytes[simnet.WtoW] / (2 * n)
	d := gan.RingMLP().NewGAN(1, nn.GenLossNonSaturating, 0).D
	if want := swapPayloadSize(d, SwapNative); perSwap != want {
		t.Fatalf("per-swap bytes = %d, want native |θ| payload %d", perSwap, want)
	}
}

// TestCrashesRemoveWorkers runs the Fig. 5 schedule on a small scale:
// workers crash during training; the run completes with the survivors
// and the result reports exactly the surviving set.
func TestCrashesRemoveWorkers(t *testing.T) {
	shards := ringShards(4, 100, 17)
	cfg := baseConfig()
	cfg.Iters = 20
	cfg.CrashAt = map[int][]int{5: {0}, 10: {2}}
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Live) != 2 {
		t.Fatalf("live = %v, want 2 survivors", res.Live)
	}
	for _, name := range res.Live {
		if name == workerName(0) || name == workerName(2) {
			t.Fatalf("crashed worker %s reported live", name)
		}
	}
	if res.Iters != 20 {
		t.Fatalf("iters = %d; crashes must not stop training", res.Iters)
	}
}

func TestAllWorkersCrashedEndsTraining(t *testing.T) {
	shards := ringShards(2, 64, 19)
	cfg := baseConfig()
	cfg.Iters = 50
	cfg.CrashAt = map[int][]int{3: {0, 1}}
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters >= 50 || len(res.Live) != 0 {
		t.Fatalf("iters=%d live=%v; training must end when all workers die", res.Iters, res.Live)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		shards := ringShards(3, 100, 21)
		cfg := baseConfig()
		cfg.Iters = 10
		res, err := Train(shards, gan.RingMLP(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return nn.ParamVector(res.G.Net.Params())
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at param %d", i)
		}
	}
}

// TestMDGANLearnsRing is the end-to-end learning check: distributed
// training moves generated samples onto the ring.
func TestMDGANLearnsRing(t *testing.T) {
	shards := ringShards(4, 500, 23)
	cfg := baseConfig()
	cfg.Iters = 500
	cfg.Batch = 32
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	x, _ := res.G.Generate(256, rng, false)
	sum := 0.0
	for i := 0; i < x.Dim(0); i++ {
		sum += math.Hypot(x.At(i, 0), x.At(i, 1))
	}
	mean := sum / float64(x.Dim(0))
	if mean < 1.2 || mean > 2.8 {
		t.Fatalf("mean generated radius %v, want ~2", mean)
	}
}

func TestEvalHookFires(t *testing.T) {
	shards := ringShards(2, 64, 25)
	cfg := baseConfig()
	cfg.Iters = 10
	cfg.EvalEvery = 3
	var calls []int
	_, err := Train(shards, gan.RingMLP(), cfg, func(it int, g *gan.Generator) {
		calls = append(calls, it)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 6, 9}
	if len(calls) != len(want) {
		t.Fatalf("eval calls = %v", calls)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("eval calls = %v, want %v", calls, want)
		}
	}
}

func TestKExceedsNRejected(t *testing.T) {
	shards := ringShards(2, 64, 27)
	cfg := baseConfig()
	cfg.K = 5
	if _, err := Train(shards, gan.RingMLP(), cfg, nil); err == nil {
		t.Fatal("k > N must be rejected")
	}
}

func TestAsyncModeTrains(t *testing.T) {
	shards := ringShards(3, 200, 29)
	cfg := baseConfig()
	cfg.Async = true
	cfg.Iters = 60 // 60 single-feedback updates ≈ 20 sync iterations
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 60 {
		t.Fatalf("async iters = %d", res.Iters)
	}
	if res.Traffic.Msgs[simnet.WtoC] < 60 {
		t.Fatalf("W→C msgs = %d, want >= 60", res.Traffic.Msgs[simnet.WtoC])
	}
}

func TestAsyncWithCrashes(t *testing.T) {
	shards := ringShards(3, 200, 31)
	cfg := baseConfig()
	cfg.Async = true
	cfg.Iters = 40
	cfg.CrashAt = map[int][]int{10: {1}}
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Live) != 2 {
		t.Fatalf("live = %v", res.Live)
	}
}

// TestTrainOverTCP runs a short MD-GAN session over real loopback
// sockets, confirming the algorithm is transport-independent.
func TestTrainOverTCP(t *testing.T) {
	shards := ringShards(2, 64, 33)
	cfg := baseConfig()
	cfg.Iters = 5
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
