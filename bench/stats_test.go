package main

import (
	"errors"
	"math"
	"testing"
)

// series builds n ops of about base ms with a deterministic ±5 % saw
// tooth, slowed by factor inside [slowFrom, slowTo), and a probe
// reading every 25 ops that reads probeRefMS outside the slow phase and
// factor times that inside: a host whose speed the probe tracks.
func series(n int, base, factor float64, slowFrom, slowTo int) ([]float64, []reading) {
	ops := make([]float64, n)
	for i := range ops {
		ops[i] = base * (0.95 + 0.1*float64(i%11)/10)
		if i >= slowFrom && i < slowTo {
			ops[i] *= factor
		}
	}
	var probes []reading
	for at := 0; at <= n; at += 25 {
		ms := probeRefMS
		if at >= slowFrom && at <= slowTo && slowTo > slowFrom {
			ms *= factor
		}
		probes = append(probes, reading{At: at, MS: ms})
	}
	return ops, probes
}

func TestNormalisedMedianIgnoresSlowPhase(t *testing.T) {
	clean, _ := series(1000, 10, 1, 0, 0)
	want, _ := median(clean)
	for _, c := range []struct {
		name     string
		from, to int
		rawMoves float64 // least relative move of the raw median
	}{
		{"40% slow", 300, 700, 0.02},
		{"60% slow", 200, 800, 0.5},
		{"all slow", 0, 1000, 0.59}, // nothing left for a gate to keep
	} {
		ops, probes := series(1000, 10, 1.6, c.from, c.to)
		raw, _ := median(ops)
		if d := relDiff(want, raw); d < c.rawMoves {
			t.Errorf("%s: raw p50 moved %.1f%%, expected at least %.0f%%", c.name, 100*d, 100*c.rawMoves)
		}
		norm, err := normalise(ops, probes)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, _ := median(norm)
		if d := math.Abs(relDiff(want, got)); d > 0.011 {
			t.Errorf("%s: normalised p50 %.4f, clean p50 %.4f (%.2f%% apart)", c.name, got, want, 100*d)
		}
		if again, _ := series(1000, 10, 1.6, c.from, c.to); len(norm) != len(ops) || ops[c.from] != again[c.from] {
			t.Errorf("%s: normalise changed its input or dropped ops", c.name)
		}
	}
}

func TestNormaliseScalesByBracketingMean(t *testing.T) {
	ops := []float64{3, 3, 3, 3}
	probes := []reading{{At: 0, MS: 1}, {At: 2, MS: 2}, {At: 4, MS: 4}}
	got, err := normalise(ops, probes)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{2, 2, 1, 1} { // 3 ÷ mean(1,2), 3 ÷ mean(2,4)
		if got[i] != want {
			t.Errorf("op %d: %v, want %v", i, got[i], want)
		}
	}
}

func TestNormaliseErrors(t *testing.T) {
	ok := []reading{{At: 0, MS: 1}, {At: 50, MS: 1.2}, {At: 100, MS: 1.1}}
	ops := make([]float64, 100)
	for _, c := range []struct {
		name   string
		ops    []float64
		probes []reading
		want   error
	}{
		{"no ops", nil, ok, errNoSamples},
		{"no probes", ops, nil, errNoBracket},
		{"one probe", ops, ok[:1], errNoBracket},
		{"first op not bracketed", ops, []reading{{At: 10, MS: 1}, {At: 100, MS: 1}}, errNoBracket},
		{"last op not bracketed", ops, []reading{{At: 0, MS: 1}, {At: 90, MS: 1}}, errNoBracket},
		{"readings out of order", ops, []reading{{At: 0, MS: 1}, {At: 60, MS: 1}, {At: 50, MS: 1}, {At: 100, MS: 1}}, errNoBracket},
		{"zero reading", ops, []reading{{At: 0, MS: 0}, {At: 100, MS: 1}}, errBadSamples},
		{"negative reading", ops, []reading{{At: 0, MS: 1}, {At: 100, MS: -1}}, errBadSamples},
		{"infinite reading", ops, []reading{{At: 0, MS: 1}, {At: 100, MS: math.Inf(1)}}, errBadSamples},
		{"NaN reading", ops, []reading{{At: 0, MS: math.NaN()}, {At: 100, MS: 1}}, errBadSamples},
	} {
		if _, err := normalise(c.ops, c.probes); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := normalise(ops, ok); err != nil {
		t.Errorf("well-formed input: %v", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.125: 1.5} {
		if got, err := percentile(xs, q); err != nil || got != want {
			t.Errorf("percentile(%v) = %v, %v; want %v", q, got, err, want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if _, err := percentile(nil, 0.5); !errors.Is(err, errNoSamples) {
		t.Errorf("empty input: %v", err)
	}
	if _, err := percentile([]float64{1, math.NaN()}, 0.5); !errors.Is(err, errBadSamples) {
		t.Errorf("NaN input: %v", err)
	}
	if _, err := percentile([]float64{-1, 2}, 0.5); !errors.Is(err, errBadSamples) {
		t.Errorf("negative input: %v", err)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for q, need := range map[float64]int{0.5: 20, 0.90: 100, 0.95: 200, 0.99: 1000} {
		if got := opsForTail(q); got != need {
			t.Errorf("opsForTail(%v) = %d, want %d", q, got, need)
		}
		ops, _ := series(need, 10, 1, 0, 0)
		if _, err := tailPercentile(ops, q); err != nil {
			t.Errorf("p%.0f of %d samples: %v", 100*q, need, err)
		}
		if _, err := tailPercentile(ops[1:], q); !errors.Is(err, errThinTail) {
			t.Errorf("p%.0f of %d samples: %v, want errThinTail", 100*q, need-1, err)
		}
	}
}

func TestSetupSeconds(t *testing.T) {
	starts := []coldStart{
		{Seconds: 0.50, BeforeMS: 1.0, AfterMS: 1.0},
		{Seconds: 0.80, BeforeMS: 1.6, AfterMS: 1.6}, // a contended start, same work
		{Seconds: 0.65, BeforeMS: 1.0, AfterMS: 1.6}, // the host changed under it
		{Seconds: 0.52, BeforeMS: 1.0, AfterMS: 1.08},
		{Seconds: 0.49, BeforeMS: 0.98, AfterMS: 0.98},
	}
	got, err := setupSeconds(starts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("setup_s = %v, want 0.5: every start did half a second of reference-host work", got)
	}
	if _, err := setupSeconds(nil); !errors.Is(err, errNoSamples) {
		t.Errorf("no starts: %v", err)
	}
	if _, err := setupSeconds([]coldStart{{Seconds: 0.5}}); !errors.Is(err, errBadSamples) {
		t.Errorf("start without readings: %v", err)
	}
}
