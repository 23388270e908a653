package main

import (
	"math"
	"testing"
)

func TestProbeReadsPositiveAndRepeatable(t *testing.T) {
	for _, p := range []int{1, 2} {
		best, worst := math.Inf(1), 0.0
		for i := 0; i < 5; i++ {
			ms := readProbe(p)
			if !(ms > 0) || math.IsInf(ms, 0) {
				t.Fatalf("reading %d on %d goroutines: %v ms", i, p, ms)
			}
			best, worst = math.Min(best, ms), math.Max(worst, ms)
		}
		// Five readings of the same arithmetic: one cannot be an order
		// of magnitude off another. (A tighter bound would test the host.)
		if worst > 10*best {
			t.Errorf("%d goroutines: readings range from %.3f to %.3f ms", p, best, worst)
		}
	}
}
