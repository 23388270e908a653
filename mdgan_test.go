package mdgan_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"mdgan"
)

func TestRunAllAlgorithmsOnRing(t *testing.T) {
	ds := mdgan.GaussianRing(600, 8, 2.0, 0.05, 1)
	for _, algo := range []mdgan.Algorithm{mdgan.Standalone, mdgan.FLGAN, mdgan.MDGAN} {
		t.Run(string(algo), func(t *testing.T) {
			res, err := mdgan.Run(ds, mdgan.RingArch(), mdgan.Options{
				Algorithm: algo, Workers: 3, Batch: 16, Iters: 20, Seed: 2,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.G == nil {
				t.Fatal("no generator returned")
			}
			if algo != mdgan.Standalone && res.Traffic.Total() == 0 {
				t.Fatal("distributed run recorded no traffic")
			}
		})
	}
}

func TestRunProducesCurves(t *testing.T) {
	ds := mdgan.SynthDigits(400, 3)
	test := mdgan.SynthDigits(300, 4)
	scorer := mdgan.TrainScorer(test, 3)
	ev := mdgan.NewEvaluator(scorer, test, 100)
	res, err := mdgan.Run(ds, mdgan.MLPArch(32), mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: 4, Batch: 10, Iters: 20, EvalEvery: 10, Seed: 5,
	}, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Iters) != 2 {
		t.Fatalf("curve points = %v", res.Curve.Iters)
	}
	for i := range res.Curve.Iters {
		if res.Curve.Score[i] < 1 || res.Curve.Score[i] > 10 {
			t.Fatalf("score out of range: %v", res.Curve.Score)
		}
		if res.Curve.FID[i] < 0 {
			t.Fatalf("FID negative: %v", res.Curve.FID)
		}
	}
}

func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	ds := mdgan.GaussianRing(100, 4, 1, 0.05, 1)
	if _, err := mdgan.Run(ds, mdgan.RingArch(), mdgan.Options{Algorithm: "sgd"}, nil); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

// The baselines read neither Chaos nor any Engine knob, so setting one
// for them is an error, not a run that quietly ignores it.
func TestBaselinesRejectMDGANSettings(t *testing.T) {
	ds := mdgan.GaussianRing(100, 4, 1, 0.05, 1)
	tree, err := mdgan.ParseTopology("tree:2", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []mdgan.Algorithm{mdgan.Standalone, mdgan.FLGAN} {
		for name, o := range map[string]mdgan.Options{
			"chaos":    {Chaos: &mdgan.ChaosConfig{Drop: 0.05}},
			"defense":  {Engine: mdgan.Engine{Defense: true}},
			"topology": {Engine: mdgan.Engine{Topology: tree}},
		} {
			o.Algorithm, o.Workers, o.Iters = algo, 2, 1
			if _, err := mdgan.Run(ds, mdgan.RingArch(), o, nil); err == nil || !strings.Contains(err.Error(), "MD-GAN only") {
				t.Errorf("%s with %s: err = %v, want a rejection", algo, name, err)
			}
		}
	}
}

// Zero Options take the core's defaults (b = 10, I = 100): the facade
// does not restate them.
func TestStandaloneDefaults(t *testing.T) {
	ds := mdgan.GaussianRing(100, 4, 1, 0.05, 1)
	res, err := mdgan.Run(ds, mdgan.RingArch(), mdgan.Options{Algorithm: mdgan.Standalone}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 100 {
		t.Fatalf("Iters = %d, want the default 100", res.Iters)
	}
}

func TestEvaluatorDeterministic(t *testing.T) {
	test := mdgan.SynthDigits(300, 6)
	scorer := mdgan.TrainScorer(test, 6)
	ev := mdgan.NewEvaluator(scorer, test, 100)
	g := mdgan.MLPArch(32).NewGAN(7, 0, 1)
	s1, f1 := ev.Eval(g.G, 10)
	s2, f2 := ev.Eval(g.G, 10)
	if s1 != s2 || f1 != f2 {
		t.Fatal("evaluation at the same iteration must be deterministic")
	}
}

func TestArchFor(t *testing.T) {
	if a := mdgan.ArchFor(mdgan.GaussianRing(10, 4, 1, 0.1, 1)); a.Name != "ring-mlp" {
		t.Fatalf("ring → %s", a.Name)
	}
	if a := mdgan.ArchFor(mdgan.SynthDigits(10, 1)); a.Name != "scaled-mlp" {
		t.Fatalf("digits → %s", a.Name)
	}
	if a := mdgan.ArchFor(mdgan.SynthCIFAR(10, 1)); a.Name != "scaled-cnn" {
		t.Fatalf("cifar → %s", a.Name)
	}
}

func TestArchParams(t *testing.T) {
	w, theta := mdgan.ArchParams(mdgan.PaperMLPArch(), 1)
	if w != 716560 || theta != 670219 {
		t.Fatalf("paper MLP params = %d/%d", w, theta)
	}
}

func TestComplexityFacade(t *testing.T) {
	p := mdgan.PaperCIFARComplexity()
	rows := mdgan.ComputeTableIV(p, []int{10, 100})
	if len(rows) != 2 || rows[0].B != 10 {
		t.Fatalf("rows = %+v", rows)
	}
	if mdgan.BytesToMB(rows[0].MDCtoWWorker) > 0.5 {
		t.Fatal("MD-GAN worker ingress should be fractions of a MB at b=10")
	}
	if red := mdgan.WorkerReduction(mdgan.PaperMNISTComplexity()); red < 1.9 || red > 2.2 {
		t.Fatalf("reduction = %v", red)
	}
}

func TestFormatters(t *testing.T) {
	curves := []mdgan.Curve{{Name: "x", Iters: []int{1}, Score: []float64{2}, FID: []float64{3}}}
	if out := mdgan.FormatCurves("t", curves); !strings.Contains(out, "x") || !strings.Contains(out, "2.000") {
		t.Fatalf("FormatCurves output:\n%s", out)
	}
	if csv := mdgan.FormatCurvesCSV(curves); !strings.Contains(csv, "x,1,2,3") {
		t.Fatalf("CSV output:\n%s", csv)
	}
	if out := mdgan.TableIIIFormulas(); !strings.Contains(out, "bdN") || !strings.Contains(out, "N(θ+w)") {
		t.Fatalf("Table III output:\n%s", out)
	}
	p := mdgan.PaperCIFARComplexity()
	if out := mdgan.FormatTableIV(mdgan.ComputeTableIV(p, []int{10, 100})); !strings.Contains(out, "Table IV") {
		t.Fatal("Table IV formatter broken")
	}
	s := mdgan.ComputeFig2(p, []int{1, 10, 100})
	if out := mdgan.FormatFig2("cifar", p, s); !strings.Contains(out, "crossover") {
		t.Fatal("Fig2 formatter broken")
	}
	if out := mdgan.FormatTableII("mnist", mdgan.PaperMNISTComplexity()); !strings.Contains(out, "reduction") {
		t.Fatal("Table II formatter broken")
	}
}

func TestCurveLast(t *testing.T) {
	var c mdgan.Curve
	if s, f := c.Last(); s != 0 || f != 0 {
		t.Fatal("empty curve must report zeros")
	}
	c = mdgan.Curve{Iters: []int{1, 2}, Score: []float64{1, 5}, FID: []float64{9, 3}}
	if s, f := c.Last(); s != 5 || f != 3 {
		t.Fatalf("Last = %v/%v", s, f)
	}
}

// TestMDGANImprovesFID: a short digits run must cut the generator's
// FID well below its untrained starting point — the weakest useful
// statement of Fig. 3's qualitative outcome, kept cheap enough for the
// unit suite (the full trajectories live in the bench harness).
func TestMDGANImprovesFID(t *testing.T) {
	train := mdgan.SynthDigits(1500, 8)
	test := mdgan.SynthDigits(600, 9)
	scorer := mdgan.TrainScorer(test, 8)
	ev := mdgan.NewEvaluator(scorer, test, 200)

	untrained := mdgan.MLPArch(64).NewGAN(10, 0, 1)
	_, fid0 := ev.Eval(untrained.G, 0)

	res, err := mdgan.Run(train, mdgan.MLPArch(64), mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: 5, Batch: 10, Iters: 600,
		EvalEvery: 600, Seed: 10, K: 1,
	}, ev)
	if err != nil {
		t.Fatal(err)
	}
	_, fid := res.Curve.Last()
	if math.IsNaN(fid) || fid >= fid0*0.6 {
		t.Fatalf("trained FID %.1f must be well below untrained FID %.1f", fid, fid0)
	}
}

// TestRunWithChaosAndDeadline: the facade's fault-tolerance knobs reach
// the engine — a chaotic transport with a round deadline completes,
// reports the injected faults, and keeps the curve plumbing intact.
func TestRunWithChaosAndDeadline(t *testing.T) {
	ds := mdgan.GaussianRing(600, 8, 2.0, 0.05, 1)
	res, err := mdgan.Run(ds, mdgan.RingArch(), mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: 3, Batch: 16, Iters: 25, Seed: 2,
		Engine: mdgan.Engine{RoundTimeout: 250 * time.Millisecond, SuspectAfter: 8},
		Chaos:  &mdgan.ChaosConfig{Seed: 11, Drop: 0.02, Delay: 0.05, Duplicate: 0.02},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 25 {
		t.Fatalf("iters = %d, want 25 despite chaos", res.Iters)
	}
	if res.Chaos.Dropped+res.Chaos.Delayed+res.Chaos.Duplicated == 0 {
		t.Fatal("chaos transport injected nothing — the wrapper was not wired")
	}
	if res.Faults.Timeouts == 0 {
		t.Fatal("dropped frames never cost a timeout — fault accounting not wired")
	}
}
