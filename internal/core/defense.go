package core

// Server-side feedback-quality defense against free-riders (Zhao et
// al., "Attacks and Defenses for Free-Riders in Multi-Discriminator
// GAN"). A free-rider fabricates feedback without running its
// discriminator, so nothing it sends can carry information about the
// generated batch it claims to score. The defense exploits exactly
// that: it tracks per-worker cross-round statistics of the feedbacks
// the server already holds —
//
//   - cosine similarity to a leave-one-out reference (the sum of the
//     OTHER feedbacks that scored the same generated batch): honest
//     feedbacks share the loss surface's descent direction, fabricated
//     noise is orthogonal to it in expectation;
//   - norm trajectory: a feedback whose magnitude strays far from its
//     group's median was fabricated with the wrong scale;
//   - replay detection: a fingerprint over the FP32-quantized elements
//     (stable across the FP32 wire re-encoding) that an honest worker
//     can never repeat, while a replay free-rider repeats it every
//     round —
//
// and folds the per-round evidence into an EWMA suspicion score. The
// response escalates through the EXISTING failure machinery rather
// than inventing a new one: a suspicious worker is first down-weighted
// in aggregation (reversible — the suspicion decays if its feedback
// recovers), and only a worker whose suspicion stays above the
// demotion threshold for a full corrupt-frame strike budget is removed
// permanently, through the same Membership.Fail path a persistent
// garbage sender takes. Suspect/probe is deliberately NOT used: a
// free-rider is alive and answers pings, so suspicion would just flap.
//
// Determinism: the defense reads the round's feedbacks and performs
// pure float arithmetic — no RNG draws, no mutation of the feedbacks.
// While no worker crosses the down-weight threshold it returns a nil
// weight map and apply takes its unweighted branch — the arithmetic the
// serial reference replays — so a defense-on attack-free run stays on
// the strict bitwise pin.

import (
	"math"

	"mdgan/internal/cluster"
	"mdgan/internal/tensor"
)

// The defense's thresholds, fixed for every run.
const (
	// defaultDefenseDecay is the EWMA weight of the PAST suspicion:
	// s ← decay·s + (1−decay)·p with p this round's penalty in [0, 1].
	defaultDefenseDecay = 0.5
	// defaultDownWeightAt is the suspicion at which a worker's
	// aggregation weight drops below 1 (two consecutive maximally
	// suspicious rounds at this decay).
	defaultDownWeightAt = 0.6
	// defaultDemoteAt is the suspicion above which a round counts
	// against the worker's strike budget; SuspectAfter strikes demote it
	// permanently.
	defaultDemoteAt = 0.85
	// defaultCosLow and defaultCosHigh bound the cosine penalty ramp:
	// similarity to the leave-one-out reference at or below the low end
	// scores the full penalty, at or above the high end none.
	defaultCosLow  = 0.05
	defaultCosHigh = 0.25
)

// Norm-outlier penalty ramp: no penalty up to 3× (or 1/3×) the group's
// median feedback norm, full penalty at 9× (honest norms cluster; a
// mis-calibrated fabrication does not).
var (
	normDevLow  = math.Log(3)
	normDevHigh = math.Log(9)
)

// fpHistory bounds each worker's fingerprint set. Clearing a full set
// cannot mask a replayer — it re-offers the same fingerprint every
// round, so it re-enters the set immediately and is caught on the next.
const fpHistory = 512

// defWorker is the cross-round state the defense keeps per worker.
type defWorker struct {
	suspicion  float64
	strikes    int // rounds at suspicion ≥ defaultDemoteAt (the demotion budget)
	demoted    bool
	cosSum     float64
	cosRounds  int
	scored     int
	lastNorm   float64
	replayHits int
	fps        map[uint64]bool
}

// defense scores each round's feedbacks and maintains the per-worker
// suspicion state. One instance per server, single-threaded (observe
// runs inside apply).
type defense struct {
	m       *cluster.Membership
	workers map[string]*defWorker
	weights map[string]float64 // reused across rounds
	norms   []float64          // per-group scratch
	meds    []float64          // median scratch (median sorts in place)
}

func newDefense(m *cluster.Membership) *defense {
	return &defense{
		m:       m,
		workers: make(map[string]*defWorker),
		weights: make(map[string]float64),
	}
}

func (d *defense) worker(name string) *defWorker {
	w := d.workers[name]
	if w == nil {
		w = &defWorker{}
		d.workers[name] = w
	}
	return w
}

// observe scores this round's grouped feedbacks (r.groupNames /
// r.groupFeeds, as built by apply: one item per direct child of the
// server, which on the star — the only plan Train allows the defense —
// is one worker's own feedback) and returns the per-worker aggregation
// weights, or nil when every weight is exactly 1, which keeps apply on
// its unweighted branch. Demotions fire
// inside (Membership.Fail + NoteFreeRiderDemotion) once a worker
// exhausts its strike budget.
func (d *defense) observe(r *round) map[string]float64 {
	clear(d.weights)
	flagged := false
	for j := range r.groupNames {
		names, fs := r.groupNames[j], r.groupFeeds[j]
		if len(names) == 0 {
			continue
		}
		n := len(fs)
		// Group sum: the leave-one-out reference for member i is
		// S − Fᵢ, and cos(Fᵢ, S−Fᵢ) needs only ⟨Fᵢ,S⟩, ‖Fᵢ‖ and ‖S‖ —
		// no per-member reference tensor is ever materialized.
		var sum *tensor.Tensor
		var sumSq float64
		if n >= 2 {
			sum = tensor.GetZeroed(fs[0].Shape()...)
			for _, f := range fs {
				sum.AxpyInPlace(1, f)
			}
			sumSq = tensor.Dot(sum, sum)
		}
		if cap(d.norms) < n {
			d.norms = make([]float64, n)
		}
		norms := d.norms[:n]
		for i, f := range fs {
			norms[i] = f.Norm2()
		}
		med := 0.0
		if n >= 2 {
			d.meds = append(d.meds[:0], norms...)
			med = median(d.meds)
		}
		for i, name := range names {
			w := d.worker(name)
			w.scored++
			norm := norms[i]
			p := 0.0
			fp := feedbackFingerprint(fs[i])
			if w.fps == nil {
				w.fps = make(map[uint64]bool)
			}
			if w.fps[fp] {
				w.replayHits++
				p = 1
			} else {
				if len(w.fps) >= fpHistory {
					clear(w.fps)
				}
				w.fps[fp] = true
			}
			if n >= 2 {
				dot := tensor.Dot(fs[i], sum)
				nf2 := norm * norm
				refSq := sumSq - 2*dot + nf2 // ‖S−Fᵢ‖²
				if norm > 0 && refSq > 0 {
					cos := (dot - nf2) / (norm * math.Sqrt(refSq))
					w.cosSum += cos
					w.cosRounds++
					if pc := rampDown(cos, defaultCosLow, defaultCosHigh); pc > p {
						p = pc
					}
				}
				if norm > 0 && med > 0 {
					dev := math.Abs(math.Log(norm / med))
					if pn := rampUp(dev, normDevLow, normDevHigh); pn > p {
						p = pn
					}
				}
			}
			w.lastNorm = norm
			w.suspicion = defaultDefenseDecay*w.suspicion + (1-defaultDefenseDecay)*p
			if !w.demoted && w.suspicion >= defaultDemoteAt {
				w.strikes++
				if w.strikes >= d.m.SuspectThreshold() {
					w.demoted = true
					d.m.Fail(name)
					d.m.NoteFreeRiderDemotion(name)
				}
			}
			switch {
			case w.demoted:
				d.weights[name] = 0
				flagged = true
			case w.suspicion >= defaultDownWeightAt:
				d.weights[name] = 1 - w.suspicion
				d.m.NoteDownWeight(name)
				flagged = true
			}
		}
		if sum != nil {
			tensor.Put(sum)
		}
	}
	if !flagged {
		return nil
	}
	return d.weights
}

// snapshots exports the per-worker state for Result.Faults.Defense.
func (d *defense) snapshots() map[string]cluster.DefenseScore {
	out := make(map[string]cluster.DefenseScore, len(d.workers))
	for name, w := range d.workers {
		avg := 0.0
		if w.cosRounds > 0 {
			avg = w.cosSum / float64(w.cosRounds)
		}
		out[name] = cluster.DefenseScore{
			Suspicion:    w.suspicion,
			AvgCosine:    avg,
			ReplayHits:   w.replayHits,
			ScoredRounds: w.scored,
			Demoted:      w.demoted,
		}
	}
	return out
}

// rampDown maps x ≤ lo to 1, x ≥ hi to 0, linear between.
func rampDown(x, lo, hi float64) float64 {
	switch {
	case x <= lo:
		return 1
	case x >= hi:
		return 0
	default:
		return (hi - x) / (hi - lo)
	}
}

// rampUp maps x ≤ lo to 0, x ≥ hi to 1, linear between.
func rampUp(x, lo, hi float64) float64 {
	switch {
	case x <= lo:
		return 0
	case x >= hi:
		return 1
	default:
		return (x - lo) / (hi - lo)
	}
}

// feedbackFingerprint hashes the FP32-quantized elements (FNV-1a over
// the float32 bit patterns). Quantizing before hashing makes the
// fingerprint survive an FP32 wire round-trip exactly —
// float32(float64(float32(v))) == float32(v) — so a replayed tensor is
// recognized across CompressNone and CompressFP32 alike.
func feedbackFingerprint(f *tensor.Tensor) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range f.Data {
		b := math.Float32bits(float32(v))
		for s := 0; s < 32; s += 8 {
			h ^= uint64(b>>s) & 0xFF
			h *= prime64
		}
	}
	return h
}
