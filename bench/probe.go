package main

import (
	"sync"
	"time"
)

// The probe is a fixed piece of arithmetic whose duration tells how
// fast the virtual CPUs execute the kind of code the workloads are made
// of at this instant. It shares no code with the repository, so a
// change to the program cannot move it: eight independent multiply-add
// chains whose operands live in a 64-byte, L1-resident slice, so that
// every step is a load, a multiply, an add and a store.
//
// Why it exists: the 2-vCPU sandbox alternates, for seconds to tens of
// minutes at a time, between a state in which a probe pass takes 1.0 ms
// and one in which it takes 1.3–1.9 times as long, with no steal
// time reported to the guest. Every workload's ops stretch with it
// (NOISE.md: the all-cores median of one unchanged binary ranged 55 %
// over ten runs). A dependency chain held in registers does not slow
// down at all in that state, a 24 MiB sweep of memory by less than the
// workloads do; loads and stores that hit L1 track them best, which is
// what a neighbour on the sibling hardware thread would do to us. Each
// timed op is therefore divided by the reading of the probe passes
// bracketing it, which turns wall time into time on a host where a pass
// takes probeRefMS.
const (
	// probeSteps makes a pass take about 1.0 ms on the quiet sandbox
	// (0.9 ms at best).
	probeSteps = 135000
	// probeRefMS is the probe pass of the reference host. Timing metrics
	// are reported in its milliseconds.
	probeRefMS = 1.0
	// probeEvery is the least timed work between two probe readings:
	// short enough that a 3 s contended phase is bracketed several
	// times, long enough that the probe costs well under one percent.
	probeEvery = 250 * time.Millisecond
)

// refScale is the factor that turns a wall-clock duration bracketed by
// the two readings into a duration on the reference host.
func refScale(beforeMS, afterMS float64) float64 {
	return probeRefMS / ((beforeMS + afterMS) / 2)
}

// probePass runs the chains once and returns the duration in ms. It is
// never inlined, so that its machine code depends on nothing but these
// lines: the readings of two builds of the benchmark stay comparable.
//
//go:noinline
func probePass() float64 {
	x := make([]float64, 8)
	for j := range x {
		x[j] = 1 + 0.1*float64(j)
	}
	t0 := time.Now()
	for i := 0; i < probeSteps; i++ {
		for j := range x {
			x[j] = x[j]*0.999999 + 1e-7
		}
	}
	d := float64(time.Since(t0)) / 1e6
	if x[0]+x[7] == 0 {
		return 0 // never true; keeps the chains' result live
	}
	return d
}

// readProbe runs one pass on each of p goroutines at once and returns
// the mean duration: the speed of the p virtual CPUs the measured code
// is about to use. The measured code is idle while it runs.
func readProbe(p int) float64 {
	if p <= 1 {
		return probePass()
	}
	ms := make([]float64, p)
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i] = probePass()
		}(i)
	}
	wg.Wait()
	return sum(ms) / float64(p)
}
