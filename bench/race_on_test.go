//go:build race

package main

// raceEnabled skips, under the race detector, the miniatures of the two
// model-sized workloads (one of their ops takes about a second there)
// and the tiny workload's full end-to-end run; the tiny workload's
// miniature and the serving workload still run the whole harness.
const raceEnabled = true
