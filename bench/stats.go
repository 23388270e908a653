package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Estimators. Every function returns an error where the input cannot
// support the statistic; none returns a silent zero.

var (
	errNoSamples  = errors.New("stats: no samples")
	errNoBracket  = errors.New("stats: ops not bracketed by probe readings")
	errThinTail   = errors.New("stats: fewer than ten samples beyond the percentile")
	errBadSamples = errors.New("stats: non-finite or non-positive sample")
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs is not modified.
func percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errNoSamples
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if math.IsNaN(s[0]) || s[0] < 0 || math.IsInf(s[len(s)-1], 0) || math.IsNaN(s[len(s)-1]) {
		return 0, errBadSamples
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), nil
}

func median(xs []float64) (float64, error) { return percentile(xs, 0.5) }

// tailSupport is the least number of samples that must lie beyond a
// reported tail percentile.
const tailSupport = 10

// tailPercentile is percentile with the support rule: a tail percentile
// is reported only when at least tailSupport samples lie beyond it.
func tailPercentile(xs []float64, q float64) (float64, error) {
	if len(xs) < opsForTail(q) {
		return 0, fmt.Errorf("%w: %d samples at q=%.3g", errThinTail, len(xs), q)
	}
	return percentile(xs, q)
}

// opsForTail is the least sample count that supports the q-quantile.
func opsForTail(q float64) int {
	return int(math.Ceil(tailSupport/(1-q) - 1e-9))
}

// reading is one probe reading: it was taken after At timed ops had
// completed (0 = before the first) and a pass took MS milliseconds.
type reading struct {
	At int     `json:"at"`
	MS float64 `json:"ms"`
}

// normalise turns wall-clock op durations into durations on the
// reference host. Op i is bracketed by the last reading with At ≤ i and
// the first with At > i; its duration is scaled by probeRefMS over the
// mean of the two. A contended window thus counts for what it would
// have taken on a quiet host instead of being kept as it is (raw) or
// thrown away (a gate, which has nothing left to keep when the host
// stays contended for a whole run; see NOISE.md).
func normalise(ops []float64, probes []reading) ([]float64, error) {
	n := len(ops)
	if n == 0 {
		return nil, errNoSamples
	}
	if len(probes) < 2 || probes[0].At != 0 || probes[len(probes)-1].At < n {
		return nil, errNoBracket
	}
	out := make([]float64, n)
	for i := 1; i < len(probes); i++ {
		a, b := probes[i-1], probes[i]
		if b.At < a.At {
			return nil, errNoBracket
		}
		for _, p := range []reading{a, b} {
			if !(p.MS > 0) || math.IsInf(p.MS, 0) {
				return nil, fmt.Errorf("%w: probe reading %v ms", errBadSamples, p.MS)
			}
		}
		scale := refScale(a.MS, b.MS)
		for j := a.At; j < b.At && j < n; j++ {
			out[j] = ops[j] * scale
		}
	}
	return out, nil
}

// probeSummary returns the best and the median reading of a run, the
// diagnostics every result file carries.
func probeSummary(probes []reading) (best, med float64) {
	ms := make([]float64, len(probes))
	for i, p := range probes {
		ms[i] = p.MS
	}
	best, _ = percentile(ms, 0)
	med, _ = median(ms)
	return best, med
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// relDiff is (b − a) / a, the relative move from a to b.
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / a
}
