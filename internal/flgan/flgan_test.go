package flgan

import (
	"bytes"
	"math"
	mathrand "math/rand"
	"testing"

	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

func ringShards(n, perShard int, seed int64) []*dataset.Dataset {
	ds := dataset.GaussianRing(n*perShard, 8, 2.0, 0.05, seed)
	return dataset.Split(ds, n, seed+1)
}

func baseConfig() Config {
	return Config{
		TrainConfig: gan.TrainConfig{
			Batch: 16, Iters: 20, DiscSteps: 1,
			GenLoss: nn.GenLossNonSaturating,
			OptG:    opt.AdamConfig{LR: 1e-3}, OptD: opt.AdamConfig{LR: 4e-3},
			Seed: 7,
		},
	}
}

func TestTrainRunsAndRounds(t *testing.T) {
	shards := ringShards(3, 64, 1) // m=64, b=16 → 4 iters/round
	cfg := baseConfig()
	cfg.Iters = 20
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 5 {
		t.Fatalf("rounds = %d, want 20/4 = 5", res.Rounds)
	}
	if res.Iters != 20 {
		t.Fatalf("iters = %d", res.Iters)
	}
}

// A round is E·m/b local iterations rounded to the nearest integer, as
// MD-GAN's swap cadence is: m = 100, b = 64 gives 2 iterations per round
// (1.5625 rounded), not the truncated 1.
func TestRoundLengthRounds(t *testing.T) {
	cfg := baseConfig()
	cfg.Batch, cfg.Iters = 64, 6
	res, err := Train(ringShards(2, 100, 1), gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 || res.Iters != 6 {
		t.Fatalf("rounds = %d, iters = %d; want 6/2 = 3 rounds of 2 iterations", res.Rounds, res.Iters)
	}
}

// TestTrafficIsModelSized verifies the Table III structure: every round
// moves exactly θ+w per worker in each direction, independent of batch
// size — the defining property that separates FL-GAN from MD-GAN.
func TestTrafficIsModelSized(t *testing.T) {
	shards := ringShards(2, 64, 3)
	cfg := baseConfig()
	cfg.Iters = 8 // 2 rounds
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	couple := RoundTripBytes(gan.RingMLP(), 1, cfg.GenLoss, 1)
	wantPerDirection := int64(2) /*workers*/ * int64(res.Rounds) * couple
	if got := res.Traffic.Bytes[simnet.CtoW]; got != wantPerDirection {
		t.Fatalf("C→W = %d, want %d", got, wantPerDirection)
	}
	if got := res.Traffic.Bytes[simnet.WtoC]; got != wantPerDirection {
		t.Fatalf("W→C = %d, want %d", got, wantPerDirection)
	}
	if got := res.Traffic.Bytes[simnet.WtoW]; got != 0 {
		t.Fatalf("FL-GAN has no W→W traffic, got %d", got)
	}
	// Traffic must not depend on batch size.
	cfg2 := cfg
	cfg2.Batch = 32
	cfg2.Iters = 4 // keep 2 rounds (m/b = 2)
	res2, err := Train(ringShards(2, 64, 3), gan.RingMLP(), cfg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Traffic.Bytes[simnet.CtoW] != res.Traffic.Bytes[simnet.CtoW] {
		t.Fatalf("FL-GAN traffic changed with batch size: %d vs %d",
			res2.Traffic.Bytes[simnet.CtoW], res.Traffic.Bytes[simnet.CtoW])
	}
}

// TestAveragingIsExact runs one round with DiscSteps=-1 and Iters so
// small that local models only drift via generator updates, then checks
// the global model equals the element-wise mean of the (identically
// seeded) worker results by construction: with identical RNG streams
// and shards of identical data the workers produce identical models, so
// the average must equal any one of them. Here we use one worker, where
// FedAvg must be the identity on that worker's result.
func TestAveragingSingleWorkerIsIdentity(t *testing.T) {
	shards := ringShards(1, 64, 5)
	cfg := baseConfig()
	cfg.Iters = 4 // one round
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: standalone training with matching seeds/streams.
	// (Worker 0 uses sampler seed Seed+104729 and rng seed Seed+1299709;
	// replicate through the exported knobs by running FL again — the
	// run must be deterministic.)
	res2, err := Train(ringShards(1, 64, 5), gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := nn.ParamVector(coupleParams(res.Model))
	b := nn.ParamVector(coupleParams(res2.Model))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FL-GAN run not deterministic")
		}
	}
}

func TestVectorRoundTrip(t *testing.T) {
	m := gan.ScaledMLP(32).NewGAN(11, nn.GenLossNonSaturating, 1)
	v := nn.ParamVector(coupleParams(m))
	m2 := gan.ScaledMLP(32).NewGAN(12, nn.GenLossNonSaturating, 1)
	if err := nn.SetParamVector(coupleParams(m2), v); err != nil {
		t.Fatal(err)
	}
	v2 := nn.ParamVector(coupleParams(m2))
	for i := range v {
		if v[i] != v2[i] {
			t.Fatalf("vector round trip mismatch at %d", i)
		}
	}
}

func TestEncodeDecodeCouple(t *testing.T) {
	a := gan.ScaledMLP(32).NewGAN(13, nn.GenLossNonSaturating, 1)
	b := gan.ScaledMLP(32).NewGAN(14, nn.GenLossNonSaturating, 1)
	if err := decodeCoupleInto(b, encodeCouple(a)); err != nil {
		t.Fatal(err)
	}
	va, vb := nn.ParamVector(coupleParams(a)), nn.ParamVector(coupleParams(b))
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("couple transfer mismatch at %d", i)
		}
	}
}

// TestDecodeCoupleRejectsWrongEmbedShapeAndTrailingBytes: a couple
// payload comes from the network. The conditioning embedding used to be
// decoded with ReadFrom, which adopts whatever shape the frame claims —
// Embed.W changed size under Embed.Grad and Adam's moments — and bytes
// after the last parameter were ignored.
func TestDecodeCoupleRejectsWrongEmbedShapeAndTrailingBytes(t *testing.T) {
	newCouple := func(seed int64) *gan.GAN { return gan.ScaledMLP(32).NewGAN(seed, nn.GenLossNonSaturating, 1) }
	src := newCouple(13)
	if src.G.Embed == nil {
		t.Fatal("fixture must be conditional")
	}

	// The same couple with a (classes+1, zdim) embedding frame.
	wide := tensor.New(src.G.Embed.W.Dim(0)+1, src.G.Embed.W.Dim(1))
	payload := nn.AppendParams(nil, src.G.Net.Params(), tensor.NativeDType)
	payload = wide.AppendBinary(payload)
	payload = nn.AppendParams(payload, src.D.Params(), tensor.NativeDType)
	dst := newCouple(14)
	shape := append([]int(nil), dst.G.Embed.W.Shape()...)
	before := encodeCouple(dst)
	if err := decodeCoupleInto(dst, payload); err == nil {
		t.Fatal("couple with a wrong-shape embedding frame was accepted")
	}
	if !bytes.Equal(encodeCouple(dst), before) {
		t.Fatal("rejected payload overwrote the parameters ahead of the bad frame")
	}
	if !dst.G.Embed.W.SameShape(dst.G.Embed.Grad) || dst.G.Embed.W.Dim(0) != shape[0] || dst.G.Embed.W.Dim(1) != shape[1] {
		t.Fatalf("rejected frame reshaped the embedding to %v (was %v, grad %v)",
			dst.G.Embed.W.Shape(), shape, dst.G.Embed.Grad.Shape())
	}

	if err := decodeCoupleInto(dst, append(encodeCouple(src), 0)); err == nil {
		t.Fatal("couple with a trailing byte was accepted")
	}
	if !bytes.Equal(encodeCouple(dst), before) {
		t.Fatal("payload with a trailing byte was adopted before it was rejected")
	}
	if err := decodeCoupleInto(newCouple(16), encodeCouple(src)); err != nil {
		t.Fatalf("well-formed couple rejected: %v", err)
	}
}

// The couple on the wire is the generator's frames, then the
// discriminator's, each in its own documented order, and RoundTripBytes
// is that payload's size without building it.
func TestCoupleCodecByteIdentity(t *testing.T) {
	for _, arch := range []gan.Arch{gan.ScaledMLP(16), gan.RingMLP()} {
		m := arch.NewGAN(1, nn.GenLossNonSaturating, 1)
		for _, dt := range []byte{tensor.DTypeF64, tensor.DTypeF32} {
			var want []byte
			for _, p := range m.G.Net.Params() {
				want = p.W.AppendBinaryAs(want, dt)
			}
			if m.G.Embed != nil {
				want = m.G.Embed.W.AppendBinaryAs(want, dt)
			}
			nets := []*nn.Sequential{m.D.Trunk, m.D.Src}
			if m.D.Cls != nil {
				nets = append(nets, m.D.Cls)
			}
			for _, n := range nets {
				for _, p := range n.Params() {
					want = p.W.AppendBinaryAs(want, dt)
				}
			}
			ps := coupleParams(m)
			if got := nn.AppendParams(nil, ps, dt); !bytes.Equal(got, want) {
				t.Fatalf("%s dtype %#x: couple differs from per-tensor frames (%d vs %d bytes)", arch.Name, dt, len(got), len(want))
			}
			if n := nn.EncodedParamSize(ps, dt); n != int64(len(want)) {
				t.Fatalf("%s dtype %#x: EncodedParamSize %d, frames are %d bytes", arch.Name, dt, n, len(want))
			}
			if dt == tensor.NativeDType {
				if !bytes.Equal(encodeCouple(m), want) {
					t.Fatalf("%s: encodeCouple differs from per-tensor native frames", arch.Name)
				}
				if n := RoundTripBytes(arch, 1, nn.GenLossNonSaturating, 1); n != int64(len(want)) {
					t.Fatalf("%s: RoundTripBytes %d, couple is %d bytes", arch.Name, n, len(want))
				}
			}
		}
	}
}

// TestFLGANLearnsRing: end-to-end federated learning moves generated
// samples onto the ring.
func TestFLGANLearnsRing(t *testing.T) {
	shards := ringShards(3, 300, 7)
	cfg := baseConfig()
	cfg.Batch = 32
	cfg.Iters = 400
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := sampleRadii(t, res.Model)
	if x < 1.0 || x > 3.0 {
		t.Fatalf("mean generated radius %v, want ~2", x)
	}
}

func sampleRadii(t *testing.T, m *gan.GAN) float64 {
	t.Helper()
	rng := newTestRand()
	x, _ := m.G.Generate(256, rng, false)
	sum := 0.0
	for i := 0; i < x.Dim(0); i++ {
		sum += math.Hypot(x.At(i, 0), x.At(i, 1))
	}
	return sum / float64(x.Dim(0))
}

func TestEvalHook(t *testing.T) {
	shards := ringShards(2, 64, 9)
	cfg := baseConfig()
	cfg.Iters = 12 // 3 rounds of 4 iters
	cfg.EvalEvery = 4
	var calls []int
	_, err := Train(shards, gan.RingMLP(), cfg, func(it int, g *gan.Generator) {
		calls = append(calls, it)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 {
		t.Fatalf("eval calls = %v, want one per round", calls)
	}
}

func newTestRand() *mathrand.Rand { return mathrand.New(mathrand.NewSource(77)) }

// TestCrashScheduleCompletesWithSurvivors: FL-GAN now runs the same
// fail-stop crash schedules as MD-GAN through the shared membership
// layer — a crashed worker's couple and shard disappear, the server
// keeps averaging the survivors and the run completes.
func TestCrashScheduleCompletesWithSurvivors(t *testing.T) {
	shards := ringShards(4, 64, 11) // m=64, b=16 → 4 iters/round
	cfg := baseConfig()
	cfg.Iters = 32 // 8 rounds
	cfg.CrashAt = map[int][]int{3: {0}, 5: {2}}
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 8 {
		t.Fatalf("rounds = %d; crashes must not stop training", res.Rounds)
	}
	if len(res.Live) != 2 {
		t.Fatalf("live = %v, want 2 survivors", res.Live)
	}
	for _, name := range res.Live {
		if name == workerName(0) || name == workerName(2) {
			t.Fatalf("crashed worker %s reported live", name)
		}
	}
	// Post-crash rounds move fewer couples: exactly the per-round
	// survivor count in each direction (4,4,3,3 then 2 for rounds 5-8).
	couple := RoundTripBytes(gan.RingMLP(), 1, cfg.GenLoss, 1)
	if want := int64(4+4+3+3+2+2+2+2) * couple; res.Traffic.Bytes[simnet.CtoW] != want {
		t.Fatalf("C→W bytes = %d, want %d", res.Traffic.Bytes[simnet.CtoW], want)
	}
}

func TestAllWorkersCrashedEndsRun(t *testing.T) {
	shards := ringShards(2, 64, 13)
	cfg := baseConfig()
	cfg.Iters = 40 // 10 rounds planned
	cfg.CrashAt = map[int][]int{3: {0, 1}}
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 || len(res.Live) != 0 {
		t.Fatalf("rounds=%d live=%v; run must end when every worker dies", res.Rounds, res.Live)
	}
	if res.Iters != 2*4 {
		t.Fatalf("iters = %d, want the completed rounds' worth", res.Iters)
	}
}

// TestClientSampling: ActivePerRound bounds each round's participants;
// traffic drops proportionally and every worker still participates
// over time (the original federated-learning setting).
func TestClientSampling(t *testing.T) {
	const n = 5
	shards := ringShards(n, 64, 17)
	cfg := baseConfig()
	cfg.Iters = 48 // 12 rounds
	cfg.ActivePerRound = 2
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	couple := RoundTripBytes(gan.RingMLP(), 1, cfg.GenLoss, 1)
	if want := int64(2*12) * couple; res.Traffic.Bytes[simnet.CtoW] != want {
		t.Fatalf("C→W bytes = %d, want %d (2 of %d workers × 12 rounds)",
			res.Traffic.Bytes[simnet.CtoW], want, n)
	}
	for name, ingress := range res.Traffic.IngressByNode {
		if name == serverName {
			continue
		}
		if ingress == 0 {
			t.Fatalf("worker %s never sampled across 12 rounds", name)
		}
	}
	if len(res.Live) != n {
		t.Fatalf("live = %v", res.Live)
	}
}

// TestCrashedRunStillLearns: the ring end-to-end check under a crash
// schedule — the surviving federation keeps converging.
func TestCrashedRunStillLearns(t *testing.T) {
	shards := ringShards(3, 300, 19)
	cfg := baseConfig()
	cfg.Batch = 32
	cfg.Iters = 400
	cfg.CrashAt = map[int][]int{10: {1}}
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Live) != 2 {
		t.Fatalf("live = %v", res.Live)
	}
	if x := sampleRadii(t, res.Model); x < 1.0 || x > 3.0 {
		t.Fatalf("surviving federation diverged: mean radius %v", x)
	}
}
