package main

import (
	"context"
	"fmt"
)

// setupStarts is the number of fresh processes whose cold start is
// timed for setup_s.
const setupStarts = 7

// phaseSeconds splits a run's -seconds between its two timed phases
// (all cores, then one core); the cold starts and the children's own
// set-up use the remaining fifth.
func phaseSeconds(seconds float64) float64 { return 0.4 * seconds }

// nsToMS converts the child's per-op nanoseconds.
func nsToMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// coldStart is one timed start of a fresh process: wall seconds from
// exec to the end of warm-up, and the probe readings bracketing it.
type coldStart struct {
	Seconds  float64 `json:"seconds"`
	BeforeMS float64 `json:"probe_before_ms"`
	AfterMS  float64 `json:"probe_after_ms"`
}

// setupSeconds is the median cold start on the reference host.
func setupSeconds(starts []coldStart) (float64, error) {
	norm := make([]float64, len(starts))
	for i, s := range starts {
		if !(s.BeforeMS > 0) || !(s.AfterMS > 0) || !(s.Seconds > 0) {
			return 0, fmt.Errorf("%w: cold start of %v s between probe readings of %v and %v ms", errBadSamples, s.Seconds, s.BeforeMS, s.AfterMS)
		}
		norm[i] = s.Seconds * refScale(s.BeforeMS, s.AfterMS)
	}
	return median(norm)
}

// trainEndToEnd runs one training workload with tracing off: seven
// cold starts, one timed child on all cores and one on a single core,
// and the output checks that compare them.
func trainEndToEnd(ctx context.Context, self string, wl *workload, seed int64, seconds float64) (*runResult, error) {
	r := newRunResult(wl, seed, seconds)
	o := childOpts{workload: wl.name, seed: seed, seconds: phaseSeconds(seconds), minOps: opsForTail(wl.tailQ)}

	for i := 0; i < setupStarts; i++ {
		so := o
		so.setupOnly = true
		res, started, err := spawnChild(ctx, self, so, numCPU())
		if err != nil {
			return nil, err
		}
		r.Attempted++
		r.ColdStarts = append(r.ColdStarts, res.coldStart(started.UnixNano()))
	}
	all, _, err := spawnChild(ctx, self, o, numCPU())
	if err != nil {
		return nil, err
	}
	one, _, err := spawnChild(ctx, self, o, 1)
	if err != nil {
		return nil, err
	}
	if err := r.trainMetrics(wl, &all, &one); err != nil {
		return nil, err
	}
	return r, nil
}

// coldStart reads a child's set-up out of its result: exec to the end
// of warm-up, bracketed by the child's first and second probe readings.
func (c *childResult) coldStart(execNS int64) coldStart {
	cs := coldStart{Seconds: float64(c.WarmupEndNS-execNS) / 1e9, BeforeMS: c.StartProbeMS}
	if len(c.Probes) > 0 {
		cs.AfterMS = c.Probes[0].MS
	}
	return cs
}

// phaseStats are the statistics of one timed phase on the reference
// host.
type phaseStats struct {
	p50, tail, mean     float64
	probeBest, probeP50 float64
}

// stats normalises a phase's ops and takes its median, its tail
// percentile when q > 0, and its mean.
func stats(opsMS []float64, probes []reading, q float64) (phaseStats, error) {
	var s phaseStats
	norm, err := normalise(opsMS, probes)
	if err != nil {
		return s, err
	}
	if s.p50, err = median(norm); err != nil {
		return s, err
	}
	if q > 0 {
		if s.tail, err = tailPercentile(norm, q); err != nil {
			return s, err
		}
	}
	s.mean = sum(norm) / float64(len(norm))
	s.probeBest, s.probeP50 = probeSummary(probes)
	return s, nil
}

// trainMetrics fills the end-to-end metrics of a training workload from
// its all-cores and single-core children and runs the cross-child
// output checks.
func (r *runResult) trainMetrics(wl *workload, all, one *childResult) error {
	r.Attempted += len(all.OpsNS) + len(one.OpsNS)
	r.violate(all.Violations...)
	r.violate(one.Violations...)
	if all.Checksum == "" || all.Checksum != one.Checksum {
		r.violate(fmt.Sprintf("generator checksum differs: %q at GOMAXPROCS=%d, %q at GOMAXPROCS=%d",
			all.Checksum, all.Procs, one.Checksum, one.Procs))
	}
	perOp := func(c *childResult, v [3]int64) float64 {
		return float64(v[0]+v[1]+v[2]) / float64(len(c.OpsNS))
	}
	if a, b := perOp(all, all.Bytes), perOp(one, one.Bytes); a != b {
		r.violate(fmt.Sprintf("wire bytes per op differ between children: %v vs %v", a, b))
	}
	if a, b := perOp(all, all.Msgs), perOp(one, one.Msgs); a != b {
		r.violate(fmt.Sprintf("messages per op differ between children: %v vs %v", a, b))
	}

	sAll, err := stats(nsToMS(all.OpsNS), all.Probes, 0)
	if err != nil {
		return fmt.Errorf("all-cores child: %w", err)
	}
	sOne, err := stats(nsToMS(one.OpsNS), one.Probes, wl.tailQ)
	if err != nil {
		return fmt.Errorf("one-core child: %w", err)
	}
	if len(r.ColdStarts) > 0 {
		setup, err := setupSeconds(r.ColdStarts)
		if err != nil {
			return err
		}
		r.set("setup_s", setup)
	}
	r.set("op_ms_p50_1cpu", sOne.p50)
	r.set("op_ms_tail_1cpu", sOne.tail)
	r.set("op_ms_p50", sAll.p50)
	r.set("samples_per_s", float64(wl.workers*wl.batch)/(sAll.mean/1e3))
	r.set("wire_bytes_per_op", perOp(all, all.Bytes))
	r.set("peak_rss_mb", float64(all.VmHWMKB)/1024)
	r.phaseDiag(all.Procs, len(all.OpsNS), len(one.OpsNS), sAll, sOne)
	r.rawEstimators(nsToMS(all.OpsNS), nsToMS(one.OpsNS), wl.tailQ)
	return nil
}
