package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// triggerRegion submits a region with far more ranges than any
// parallelism target, so it invites (and if need be spawns) procs()-1
// helpers.
func triggerRegion() {
	var sink atomic.Int64
	ForGrain(1<<12, 8, func(s, e int) {
		sink.Add(int64(e - s))
	})
}

// waitHelpers submits regions until the live helper count reaches
// want. Neither direction is instantaneous: a missing helper is spawned
// only when a submitter finds none idle (a quick helper can take the
// same region's next offer too), and an excess one retires after the
// next region it takes part in.
func waitHelpers(t *testing.T, want int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		triggerRegion()
		if helpers.Load() == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("helpers = %d, want %d", helpers.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolResizesWithGOMAXPROCS: the helper set tracks GOMAXPROCS both
// ways between regions — raising it must not leave cores idle, lowering
// it must not leave stale helpers.
func TestPoolResizesWithGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(old)
		triggerRegion()
	}()

	runtime.GOMAXPROCS(4)
	waitHelpers(t, 3)

	// Shrink: the two excess helpers retire as regions pass through them.
	runtime.GOMAXPROCS(2)
	waitHelpers(t, 1)

	// Grow again, on demand.
	runtime.GOMAXPROCS(6)
	waitHelpers(t, 5)
}

// TestPoolResizeUnderLoad exercises a shrink while regions are being
// submitted: no region may deadlock or lose indices while helpers
// retire.
func TestPoolResizeUnderLoad(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(old)
		triggerRegion()
	}()
	runtime.GOMAXPROCS(8)
	triggerRegion()
	for round := 0; round < 20; round++ {
		if round == 10 {
			runtime.GOMAXPROCS(2)
		}
		var sum atomic.Int64
		n := 1 << 14
		ForGrain(n, 16, func(s, e int) {
			for i := s; i < e; i++ {
				sum.Add(int64(i))
			}
		})
		want := int64(n) * int64(n-1) / 2
		if sum.Load() != want {
			t.Fatalf("round %d: region lost indices: sum %d, want %d", round, sum.Load(), want)
		}
	}
	waitHelpers(t, 1)
}
