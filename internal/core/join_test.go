package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mdgan/internal/cluster"
	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

func TestWorkerJoinAddsParticipant(t *testing.T) {
	shards := ringShards(3, 100, 61) // shards for workers 0..2 + spare
	spare := dataset.GaussianRing(100, 8, 2.0, 0.05, 62)
	cfg := baseConfig()
	cfg.Iters = 20
	cfg.SwapEvery = -1
	cfg.JoinAt = map[int][]*dataset.Dataset{8: {spare}}
	res, err := Train(shards[:2], gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Live) != 3 {
		t.Fatalf("live = %v, want original 2 + 1 joiner", res.Live)
	}
	if _, ok := res.Discs[workerName(2)]; !ok {
		t.Fatal("joined worker's discriminator missing from result")
	}
	// After the join, every iteration carries 3 feedbacks instead of 2:
	// 7 iterations × 2 + 13 × 3 = 53, plus the one dparams clone reply.
	wantWtoC := int64(7*2 + 13*3 + 1)
	if got := res.Traffic.Msgs[simnet.WtoC]; got != wantWtoC {
		t.Fatalf("W→C msgs = %d, want %d", got, wantWtoC)
	}
}

// TestJoinerAdoptsDonorDiscriminator: with discriminator training
// disabled, every worker's D stays at its adopted value, so the joiner
// must end bit-identical to its donor — proving it entered with a
// pre-trained copy rather than a fresh initialisation.
func TestJoinerAdoptsDonorDiscriminator(t *testing.T) {
	shards := ringShards(2, 100, 63)
	spare := dataset.GaussianRing(100, 8, 2.0, 0.05, 64)
	cfg := baseConfig()
	cfg.Iters = 10
	cfg.DiscSteps = -1
	cfg.SwapEvery = -1
	cfg.SwapPrec = SwapNative // clone payloads at compiled width: bit-exact adoption
	cfg.JoinAt = map[int][]*dataset.Dataset{5: {spare}}
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	joined := res.Discs[workerName(2)]
	if joined == nil {
		t.Fatal("no joiner discriminator")
	}
	// All discriminators started identical and never trained, so the
	// joiner must match worker 0 exactly.
	a := nn.ParamVector(joined.Trunk.Params())
	b := nn.ParamVector(res.Discs[workerName(0)].Trunk.Params())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("joiner did not adopt the donor's discriminator")
		}
	}
}

// Under the default FP32 clone payloads the joiner adopts the donor's
// discriminator up to one float32 rounding per parameter.
func TestJoinerAdoptsDonorDiscriminatorFP32(t *testing.T) {
	shards := ringShards(2, 100, 63)
	spare := dataset.GaussianRing(100, 8, 2.0, 0.05, 64)
	cfg := baseConfig()
	cfg.Iters = 10
	cfg.DiscSteps = -1
	cfg.SwapEvery = -1
	cfg.JoinAt = map[int][]*dataset.Dataset{5: {spare}}
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	joined := res.Discs[workerName(2)]
	if joined == nil {
		t.Fatal("no joiner discriminator")
	}
	a := nn.ParamVector(joined.Trunk.Params())
	b := nn.ParamVector(res.Discs[workerName(0)].Trunk.Params())
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > 2e-7*(1+math.Abs(b[i])) {
			t.Fatalf("joiner deviates from donor at %d by %g beyond f32 rounding", i, d)
		}
	}
}

func TestJoinTrafficCost(t *testing.T) {
	shards := ringShards(2, 100, 65)
	spare := dataset.GaussianRing(100, 8, 2.0, 0.05, 66)
	cfg := baseConfig()
	cfg.Iters = 6
	cfg.SwapEvery = -1
	run := func(join bool) simnet.Traffic {
		c := cfg
		if join {
			c.JoinAt = map[int][]*dataset.Dataset{3: {spare}}
		}
		res, err := Train(ringShards(2, 100, 65), gan.RingMLP(), c, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Traffic
	}
	_ = shards
	without := run(false)
	with := run(true)
	// The join adds one |θ| upload (donor→server, at the default FP32
	// swap precision; the clone reply is raw parameter framing — only
	// W→W swap messages carry the round tag) beyond the extra worker's
	// ordinary feedback traffic.
	d := gan.RingMLP().NewGAN(1, cfg.GenLoss, 0).D
	extraUp := with.Bytes[simnet.WtoC] - without.Bytes[simnet.WtoC]
	feedbackBytes := int64(1+4+4*2+tensor.ElemBytes*cfg.Batch*2) + 1
	wantExtra := nn.EncodedParamSize(d.Params(), SwapFP32.wireDType()) + 4*feedbackBytes // 4 post-join iterations
	if extraUp != wantExtra {
		t.Fatalf("extra W→C bytes = %d, want %d", extraUp, wantExtra)
	}
}

func TestJoinDeterminism(t *testing.T) {
	run := func() []float64 {
		spare := dataset.GaussianRing(100, 8, 2.0, 0.05, 68)
		cfg := baseConfig()
		cfg.Iters = 12
		cfg.JoinAt = map[int][]*dataset.Dataset{6: {spare}}
		res, err := Train(ringShards(2, 100, 67), gan.RingMLP(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return nn.ParamVector(res.G.Net.Params())
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("join run not deterministic at param %d", i)
		}
	}
}

func TestJoinRejectedInAsyncMode(t *testing.T) {
	spare := dataset.GaussianRing(50, 8, 2.0, 0.05, 69)
	cfg := baseConfig()
	cfg.Async = true
	cfg.JoinAt = map[int][]*dataset.Dataset{2: {spare}}
	if _, err := Train(ringShards(2, 50, 70), gan.RingMLP(), cfg, nil); err == nil {
		t.Fatal("join in async mode must be rejected")
	}
}

func TestJoinThenLearn(t *testing.T) {
	// Start with one worker, join three more early, and verify the
	// grown cluster still learns the ring.
	base := ringShards(1, 500, 71)
	joins := map[int][]*dataset.Dataset{
		20: {dataset.GaussianRing(500, 8, 2.0, 0.05, 72)},
		40: {dataset.GaussianRing(500, 8, 2.0, 0.05, 73), dataset.GaussianRing(500, 8, 2.0, 0.05, 74)},
	}
	cfg := baseConfig()
	cfg.Iters = 400
	cfg.Batch = 32
	cfg.K = 1 // initial cluster is a single worker
	cfg.JoinAt = joins
	res, err := Train(base, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Live) != 4 {
		t.Fatalf("live = %v", res.Live)
	}
	rng := rand.New(rand.NewSource(7))
	x, _ := res.G.Generate(256, rng, false)
	sum := 0.0
	for i := 0; i < x.Dim(0); i++ {
		sum += math.Hypot(x.At(i, 0), x.At(i, 1))
	}
	if mean := sum / 256; mean < 1.0 || mean > 3.0 {
		t.Fatalf("grown cluster diverged: mean radius %v", mean)
	}
}

// TestJoinKeepsSuspectAggregate: while the server waits for a donor's
// clone reply it must not eat a suspect's evidence of life. Under a tree
// with a round deadline a suspect aggregator's late msgAgg can land in
// exactly that wait; processJoins used to reinstate on pongs and
// feedbacks only, so the aggregate was discarded and the tickProbes that
// follows charged the worker a miss it had not earned.
func TestJoinKeepsSuspectAggregate(t *testing.T) {
	net := simnet.NewChannelNet(8)
	defer net.Close()
	donor, suspect, joiner := workerName(0), workerName(1), workerName(2)
	for _, name := range []string{serverName, donor, suspect, joiner} {
		if err := net.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	couple := gan.RingMLP().NewGAN(5, nn.GenLossNonSaturating, 0)
	rng := rand.New(rand.NewSource(5))
	srv := &server{
		cfg: &Config{Engine: Engine{
			RoundTimeout: 50 * time.Millisecond,
			JoinAt:       map[int][]*dataset.Dataset{3: {ringShards(1, 32, 5)[0]}},
		}},
		net: net, rng: rng,
		probes: map[string]bool{suspect: true},
		m:      cluster.New(net, rng, nil, 0),
	}
	srv.m.Add(donor)
	srv.m.Add(suspect)
	srv.m.Suspect(suspect)

	// The server's inbox as the race leaves it: the suspect's aggregate
	// for a round quorum moved on without, then the donor's clone reply.
	var late aggAccum
	late.reset()
	late.add(0, []string{suspect}, tensor.Full(1, 4, 2))
	for _, msg := range []simnet.Message{
		{From: suspect, To: serverName, Type: msgAgg, Kind: simnet.WtoC, Payload: late.encode(2, CompressNone)},
		{From: donor, To: serverName, Type: msgDParams, Kind: simnet.WtoC, Payload: encodeDiscParams(couple.D, SwapNative)},
	} {
		if err := net.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	spawn := func(*dataset.Dataset) (*worker, error) { return &worker{name: joiner}, nil }
	if err := srv.processJoins(3, spawn); err != nil {
		t.Fatal(err)
	}
	if !srv.m.Alive(joiner) {
		t.Fatal("joiner was not admitted")
	}
	if still := slices.Contains(srv.m.Suspects(), suspect); still || srv.probes[suspect] {
		t.Fatalf("suspect's aggregate was discarded during the join: still suspect=%v, probe outstanding=%v",
			still, srv.probes[suspect])
	}
}
