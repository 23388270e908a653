//go:build race

package mdgan_test

// raceEnabled relaxes steady-state allocation budgets under the race
// detector: its sync.Pool instrumentation intentionally drops a random
// fraction of Puts (to widen the interleavings it can observe), so
// pooled workspaces miss sporadically and the exact pool-hit budgets of
// the normal build cannot hold.
const raceEnabled = true
