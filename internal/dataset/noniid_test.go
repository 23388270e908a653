package dataset

import (
	"testing"
)

func TestSplitNonIIDZeroSkewIsBalanced(t *testing.T) {
	ds := SynthDigits(1000, 1)
	shards := SplitNonIID(ds, 5, 0, 2)
	total := 0
	for _, sh := range shards {
		total += sh.Len()
		if LabelSkew(sh, ds) > 0.15 {
			t.Fatalf("skew-0 shard has TV distance %v", LabelSkew(sh, ds))
		}
	}
	if total != 1000 {
		t.Fatalf("shards cover %d of 1000", total)
	}
}

func TestSplitNonIIDFullSkewConcentratesLabels(t *testing.T) {
	ds := SynthDigits(1000, 3)
	shards := SplitNonIID(ds, 5, 1, 4)
	for i, sh := range shards {
		// Each shard should see only a small subset of the 10 classes.
		classes := 0
		for _, c := range labelHistogram(sh) {
			if c > 0 {
				classes++
			}
		}
		if classes > 4 {
			t.Fatalf("shard %d sees %d classes under full skew", i, classes)
		}
		if LabelSkew(sh, ds) < 0.5 {
			t.Fatalf("shard %d skew %v too low for sorted split", i, LabelSkew(sh, ds))
		}
	}
}

func TestSplitNonIIDSkewMonotone(t *testing.T) {
	ds := SynthDigits(1000, 5)
	avgSkew := func(skew float64) float64 {
		s := 0.0
		shards := SplitNonIID(ds, 5, skew, 6)
		for _, sh := range shards {
			s += LabelSkew(sh, ds)
		}
		return s / float64(len(shards))
	}
	lo, mid, hi := avgSkew(0), avgSkew(0.5), avgSkew(1)
	if !(lo < mid && mid < hi) {
		t.Fatalf("skew not monotone: %v %v %v", lo, mid, hi)
	}
}

func TestSplitNonIIDCoversDataset(t *testing.T) {
	ds := SynthDigits(303, 7)
	for _, skew := range []float64{0, 0.3, 0.7, 1} {
		shards := SplitNonIID(ds, 4, skew, 8)
		sum := 0.0
		total := 0
		for _, sh := range shards {
			sum += sh.X.Sum()
			total += sh.Len()
		}
		if total != 303 {
			t.Fatalf("skew %v: covered %d of 303", skew, total)
		}
		// Tolerance accounts for summation-order float error over
		// ~240k pixel values.
		diff := sum - ds.X.Sum()
		if diff < -1e-6 || diff > 1e-6 {
			t.Fatalf("skew %v: mass not conserved (diff %g)", skew, diff)
		}
	}
}

func TestSplitNonIIDRejectsBadArgs(t *testing.T) {
	ds := SynthDigits(10, 9)
	for _, f := range []func(){
		func() { SplitNonIID(ds, 0, 0, 1) },
		func() { SplitNonIID(ds, 2, -0.1, 1) },
		func() { SplitNonIID(ds, 2, 1.1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
