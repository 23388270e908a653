package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)
	for _, n := range []int{0, 1, 7, 4096, 10000} {
		seen := make([]int32, n)
		For(n, func(s, e int) {
			for i := s; i < e; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForceForCoversRange(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)
	n := 37
	var mu sync.Mutex
	seen := make(map[int]int)
	ForceFor(n, func(s, e int) {
		mu.Lock()
		defer mu.Unlock()
		for i := s; i < e; i++ {
			seen[i]++
		}
	})
	if len(seen) != n {
		t.Fatalf("covered %d of %d", len(seen), n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForGrainRespectsGrain(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)
	var mu sync.Mutex
	var spans [][2]int
	ForGrain(1000, 100, func(s, e int) {
		mu.Lock()
		spans = append(spans, [2]int{s, e})
		mu.Unlock()
	})
	seen := make([]int, 1000)
	for _, sp := range spans {
		if sp[1]-sp[0] > 100 {
			t.Errorf("chunk [%d,%d) exceeds grain 100", sp[0], sp[1])
		}
		for i := sp[0]; i < sp[1]; i++ {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
	// n <= grain runs as a single inline invocation.
	calls := 0
	ForGrain(50, 100, func(s, e int) {
		calls++
		if s != 0 || e != 50 {
			t.Errorf("inline chunk [%d,%d), want [0,50)", s, e)
		}
	})
	if calls != 1 {
		t.Fatalf("n<=grain split into %d chunks, want 1", calls)
	}
}

func TestSetMaxProcsSerialises(t *testing.T) {
	SetMaxProcs(1)
	defer SetMaxProcs(0)
	order := make([]int, 0, 10000)
	For(10000, func(s, e int) {
		for i := s; i < e; i++ {
			order = append(order, i) // safe only because p==1
		}
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial execution out of order at %d", i)
		}
	}
}

func TestDoRunsAll(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)
	var a, b, c int32
	Do(
		func() { atomic.StoreInt32(&a, 1) },
		func() { atomic.StoreInt32(&b, 2) },
		func() { atomic.StoreInt32(&c, 3) },
	)
	if a != 1 || b != 2 || c != 3 {
		t.Fatal("Do did not run all tasks")
	}
}

// TestNestedParallelismComposes: a region submitted from inside another
// region's body shares the same cursor mechanism, and the requirement
// is exact coverage, not serialisation.
func TestNestedParallelismComposes(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	outer, inner := 8, 10000
	var total int64
	ForceFor(outer, func(s, e int) {
		for o := s; o < e; o++ {
			ForceFor(inner, func(is, ie int) {
				atomic.AddInt64(&total, int64(ie-is))
			})
		}
	})
	if total != int64(outer*inner) {
		t.Fatalf("nested regions covered %d index units, want %d", total, outer*inner)
	}
}

// TestPoolGoroutinesAreReused: repeated fan-outs must not leak
// goroutines (helpers are persistent and capped at procs()-1; a
// submitter that finds none idle works alone rather than spawning).
func TestPoolGoroutinesAreReused(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)
	// Warm the helpers.
	ForceFor(64, func(s, e int) {})
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		ForceFor(64, func(s, e int) {})
		For(100000, func(s, e int) {})
	}
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("goroutines grew from %d to %d across 400 parallel regions", before, after)
	}
}

// TestConcurrentRegionsDoNotDeadlock: many goroutines submitting
// regions at once (the MD-GAN worker topology) must all complete.
func TestConcurrentRegionsDoNotDeadlock(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)
	var wg sync.WaitGroup
	var total int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ForceFor(100, func(s, e int) {
					for j := s; j < e; j++ {
						atomic.AddInt64(&total, 1)
					}
				})
			}
		}()
	}
	wg.Wait()
	if total != 16*50*100 {
		t.Fatalf("covered %d iterations, want %d", total, 16*50*100)
	}
}
