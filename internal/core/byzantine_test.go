package core

import (
	"math"
	"math/rand"
	"testing"

	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/tensor"
)

func TestMedianAndTrimmedMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	fs := []*tensor.Tensor{
		tensor.FromSlice([]tensor.Elem{1, 10}, 2),
		tensor.FromSlice([]tensor.Elem{2, 20}, 2),
		tensor.FromSlice([]tensor.Elem{3, 30}, 2),
		tensor.FromSlice([]tensor.Elem{1000, -1000}, 2), // outlier
	}
	med := aggregateFeedbacks(fs, AggMedian, nil)
	if med.Data[0] != 2.5 || med.Data[1] != 15 {
		t.Fatalf("median agg = %v", med.Data)
	}
	tr := aggregateFeedbacks(fs, AggTrimmedMean, nil) // trims 1 each side
	if tr.Data[0] != 2.5 || tr.Data[1] != 15 {
		t.Fatalf("trimmed agg = %v", tr.Data)
	}
	mean := aggregateFeedbacks(fs, AggMean, nil)
	if math.Abs(float64(mean.Data[0])-251.5) > tensor.Tol(1e-12, 1e-4) {
		t.Fatalf("mean agg = %v", mean.Data)
	}
}

func TestAggregateSingleFeedbackIsIdentity(t *testing.T) {
	f := tensor.FromSlice([]tensor.Elem{1, 2, 3}, 3)
	for _, mode := range []Aggregation{AggMean, AggMedian, AggTrimmedMean} {
		got := aggregateFeedbacks([]*tensor.Tensor{f}, mode, nil)
		if !got.Equal(f, 0) {
			t.Fatalf("%v on singleton not identity", mode)
		}
	}
}

func TestCorruptFeedbackModes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := tensor.FromSlice([]tensor.Elem{1, -2, 3}, 3)

	inv := base.Clone()
	if err := corruptFeedback(inv, ByzantineInvert, rng); err != nil {
		t.Fatal(err)
	}
	if inv.Data[0] != -1 || inv.Data[1] != 2 {
		t.Fatalf("invert = %v", inv.Data)
	}
	sc := base.Clone()
	if err := corruptFeedback(sc, ByzantineScale, rng); err != nil {
		t.Fatal(err)
	}
	if sc.Data[2] != 300 {
		t.Fatalf("scale = %v", sc.Data)
	}
	rd := base.Clone()
	if err := corruptFeedback(rd, ByzantineRandom, rng); err != nil {
		t.Fatal(err)
	}
	if rd.Equal(base, 1e-9) {
		t.Fatal("random attack left feedback unchanged")
	}
	hon := base.Clone()
	if err := corruptFeedback(hon, ByzantineNone, rng); err != nil {
		t.Fatal(err)
	}
	if !hon.Equal(base, 0) {
		t.Fatal("honest mode must not modify feedback")
	}
}

// An unknown mode is an error, never a panic: a misconfigured worker
// must not die mid-run — it ships an undecodable frame instead, which
// the server's corrupt-frame strike budget handles
// (TestUnknownByzantineModeTakesCorruptStrikePath).
func TestCorruptFeedbackUnknownModeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := tensor.FromSlice([]tensor.Elem{1, 2}, 2)
	if err := corruptFeedback(f, ByzantineMode(99), rng); err == nil {
		t.Fatal("unknown mode must return an error")
	}
	if f.Data[0] != 1 || f.Data[1] != 2 {
		t.Fatalf("unknown mode must leave feedback untouched, got %v", f.Data)
	}
}

// TestMedianNeutralisesByzantineExactly: with k = 1, no disc updates and
// no swaps, all honest workers compute IDENTICAL feedback (same batch,
// same discriminator), so the coordinate-wise median across 2 honest +
// 1 Byzantine worker equals the honest value exactly — the run must be
// bit-identical to a fully honest run. Under mean aggregation the same
// attack must change the generator.
func TestMedianNeutralisesByzantineExactly(t *testing.T) {
	run := func(byz map[int]ByzantineMode, agg Aggregation) []float64 {
		shards := ringShards(3, 100, 51)
		cfg := baseConfig()
		cfg.Iters = 5
		cfg.DiscSteps = -1
		cfg.K = 1
		cfg.SwapEvery = -1
		cfg.Byzantine = byz
		cfg.Aggregate = agg
		res, err := Train(shards, gan.RingMLP(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return nn.ParamVector(res.G.Net.Params())
	}
	for _, attack := range []ByzantineMode{ByzantineScale, ByzantineInvert, ByzantineRandom} {
		honest := run(nil, AggMedian)
		attacked := run(map[int]ByzantineMode{1: attack}, AggMedian)
		for i := range honest {
			if honest[i] != attacked[i] {
				t.Fatalf("attack %v: median aggregation failed to neutralise (param %d)", attack, i)
			}
		}
	}
	// Control: under mean aggregation the scale attack must leak into
	// the generator.
	honestMean := run(nil, AggMean)
	attackedMean := run(map[int]ByzantineMode{1: ByzantineScale}, AggMean)
	same := true
	for i := range honestMean {
		if honestMean[i] != attackedMean[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("mean aggregation absorbed a 100× attack — test is vacuous")
	}
}

// TestMedianTrainingSurvivesAttack: end-to-end, MD-GAN with one
// compromised worker out of five still learns the ring under median
// aggregation.
func TestMedianTrainingSurvivesAttack(t *testing.T) {
	shards := ringShards(5, 300, 53)
	cfg := baseConfig()
	cfg.Iters = 400
	cfg.Batch = 32
	cfg.K = 1
	cfg.Byzantine = map[int]ByzantineMode{2: ByzantineInvert}
	cfg.Aggregate = AggMedian
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	x, _ := res.G.Generate(256, rng, false)
	sum := 0.0
	for i := 0; i < x.Dim(0); i++ {
		sum += math.Hypot(x.At(i, 0), x.At(i, 1))
	}
	if mean := sum / 256; mean < 1.0 || mean > 3.0 {
		t.Fatalf("median-aggregated training diverged under attack: radius %v", mean)
	}
}

func TestModeStrings(t *testing.T) {
	if ByzantineInvert.String() != "invert" || AggMedian.String() != "median" {
		t.Fatal("stringers broken")
	}
	if ByzantineMode(99).String() == "" || Aggregation(99).String() == "" {
		t.Fatal("unknown values must render")
	}
}

// TestUnknownByzantineModeTakesCorruptStrikePath: end to end, a worker
// whose configured mode corruptFeedback rejects must not die or abort
// the run — it ships an undecodable frame instead, which the server
// counts as a corrupt strike and resolves through the same demotion
// path a garbage sender takes, while everyone else keeps training.
func TestUnknownByzantineModeTakesCorruptStrikePath(t *testing.T) {
	before := goroutineBaseline()
	shards := ringShards(3, 64, 59)
	cfg := baseConfig()
	cfg.Iters = 6
	cfg.Byzantine = map[int]ByzantineMode{1: ByzantineMode(99)}
	res, err := Train(shards, gan.RingMLP(), cfg, nil)
	if err != nil {
		t.Fatalf("a misconfigured byzantine mode aborted the run: %v", err)
	}
	if res.Iters != cfg.Iters {
		t.Fatalf("applied %d updates, want %d", res.Iters, cfg.Iters)
	}
	if res.Faults.CorruptFrames < 1 {
		t.Fatalf("faults = %+v, want the invalid frame counted as a corrupt strike", res.Faults)
	}
	if contains(res.Live, workerName(1)) {
		t.Fatalf("live = %v: the invalid-frame sender must be demoted", res.Live)
	}
	assertNoGoroutineLeak(t, before)
}

// TestFreeRiderFeedbackFabrication pins the worker-side attack shapes:
// replay-class noise lands in the plausible magnitude range, and the
// scaled variant tracks the generated batch's norm.
func TestFreeRiderFeedbackFabrication(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xg := tensor.New(16, 8)
	for i := range xg.Data {
		xg.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	f := fabricateFreeRiderFeedback(xg, FreeRiderRandom, rng)
	perElem := f.Norm2() / math.Sqrt(float64(len(f.Data)))
	if perElem < freeRiderSigma/3 || perElem > freeRiderSigma*3 {
		t.Fatalf("random fabrication RMS %g, want around sigma %g", perElem, freeRiderSigma)
	}
	s := fabricateFreeRiderFeedback(xg, FreeRiderScaledNoise, rng)
	want := freeRiderNormFrac * xg.Norm2()
	if got := s.Norm2(); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("scaled fabrication norm %g, want %g (tracking ‖Xg‖)", got, want)
	}
	if !FreeRiderReplay.IsFreeRider() || ByzantineInvert.IsFreeRider() {
		t.Fatal("IsFreeRider classification broken")
	}
}

// TestAggregateFeedbacksWeighted pins the weighted-mean arithmetic and
// the robust rules' exclusion semantics.
func TestAggregateFeedbacksWeighted(t *testing.T) {
	fs := []*tensor.Tensor{
		tensor.FromSlice([]tensor.Elem{1}, 1),
		tensor.FromSlice([]tensor.Elem{3}, 1),
	}
	agg, w := aggregateFeedbacksWeighted(fs, []float64{1, 3}, AggMean, nil)
	if w != 4 || math.Abs(float64(agg.Data[0])-2.5) > tensor.Tol(1e-12, 1e-5) {
		t.Fatalf("weighted mean = %v (w=%v), want 2.5 (w=4)", agg.Data, w)
	}
	tensor.Put(agg)
	// Robust rules exclude zero-weight members and rank the rest
	// unweighted: a down-weighted outlier still counts fully until its
	// weight reaches zero, because a median's breakdown point counts
	// members, not mass.
	fs = append(fs, tensor.FromSlice([]tensor.Elem{1000}, 1))
	med, w := aggregateFeedbacksWeighted(fs, []float64{1, 1, 0}, AggMedian, nil)
	if w != 2 || med.Data[0] != 2 {
		t.Fatalf("median with excluded outlier = %v (w=%v), want 2 (w=2)", med.Data, w)
	}
	tensor.Put(med)
	if agg, w := aggregateFeedbacksWeighted(fs, []float64{0, 0, 0}, AggMean, nil); agg != nil || w != 0 {
		t.Fatalf("all-excluded group returned %v (w=%v), want nil", agg, w)
	}
}

// TestAggregateFeedbacksAllocsBudget: the server's per-round
// aggregation must be allocation-free in steady state — results ride
// the tensor workspace pool and the per-coordinate scratch persists in
// the server's aggScratch.
func TestAggregateFeedbacksAllocsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fs := make([]*tensor.Tensor, 4)
	for i := range fs {
		fs[i] = tensor.New(16, 8)
		for j := range fs[i].Data {
			fs[i].Data[j] = tensor.Elem(rng.NormFloat64())
		}
	}
	sc := &aggScratch{}
	for _, mode := range []Aggregation{AggMean, AggMedian, AggTrimmedMean} {
		tensor.Put(aggregateFeedbacks(fs, mode, sc)) // warm pool + scratch
		n := testing.AllocsPerRun(50, func() {
			tensor.Put(aggregateFeedbacks(fs, mode, sc))
		})
		budget := 0.0
		if raceEnabled {
			budget = 8 // sporadic pool misses under the race detector
		}
		if n > budget {
			t.Fatalf("%v aggregation allocates %v per round, budget %v", mode, n, budget)
		}
	}
}
