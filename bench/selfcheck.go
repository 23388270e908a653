package main

import (
	"context"
	"fmt"
	"math"
)

// selfcheck runs the end-to-end pass of every workload twice, back to
// back, on the same tree and the same seed, prints both with their
// relative difference and fails if any metric moved by more than its
// own bound in either direction: a benchmark that cannot agree with
// itself cannot judge a change.
func (b *bench) selfcheck(ctx context.Context, seed int64) int {
	var sets [2][]*runResult
	for s := range sets {
		for i := range workloads {
			r, err := b.run(ctx, &workloads[i], seed, false)
			if err != nil {
				fmt.Fprintln(b.stderr, "bench:", err)
				return 1
			}
			sets[s] = append(sets[s], r)
		}
	}
	code := 0
	fmt.Fprintf(b.stdout, "%-16s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range workloads {
		first, second := sets[0][i], sets[1][i]
		for _, r := range []*runResult{first, second} {
			if !r.correct() {
				fmt.Fprintf(b.stdout, "%s: %d output checks failed: %v\n", r.Workload, r.Failed, r.Violations)
				code = 1
			}
		}
		for _, spec := range b.spec.EndToEnd {
			a, c := first.Metrics[spec.Name].Value, second.Metrics[spec.Name].Value
			d := relDiff(a, c)
			verdict := ""
			if math.Abs(d) > spec.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Fprintf(b.stdout, "%-16s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				first.Workload, spec.Name, a, c, 100*d, 100*spec.Bound, verdict)
		}
	}
	if code == 0 {
		fmt.Fprintln(b.stdout, "selfcheck: both run-sets agree within every bound")
	}
	return code
}
