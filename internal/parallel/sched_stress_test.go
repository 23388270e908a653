package parallel

// Stress, race and liveness tests for the fork-join regions: nesting,
// concurrent submitters, blocked bodies, panics. Run with
// `go test -race` (scripts/verify.sh does) — most of the value of these
// tests is what the race detector sees while they run.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNestedThreeLevels drives For-inside-For three levels deep and
// checks exact index coverage: every level fans out, nothing deadlocks,
// no index is lost or run twice.
func TestNestedThreeLevels(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	const l1, l2, l3 = 3, 4, 8192
	var total int64
	ForceFor(l1, func(s1, e1 int) {
		for i := s1; i < e1; i++ {
			ForceFor(l2, func(s2, e2 int) {
				for j := s2; j < e2; j++ {
					For(l3, func(s3, e3 int) {
						atomic.AddInt64(&total, int64(e3-s3))
					})
				}
			})
		}
	})
	if total != l1*l2*l3 {
		t.Fatalf("3-level nesting covered %d index units, want %d", total, l1*l2*l3)
	}
}

// TestConcurrentRegionsCompose: while one region is held open
// mid-execution, a second region submitted from another goroutine must
// still be cut into multiple chunks and complete — regions never
// serialise behind one another.
func TestConcurrentRegionsCompose(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	aStarted := make(chan struct{})
	release := make(chan struct{})
	var hold sync.Once
	var aChunks, bChunks atomic.Int32
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		ForceFor(8, func(s, e int) {
			aChunks.Add(1)
			hold.Do(func() {
				close(aStarted)
				<-release // keep region A open
			})
		})
	}()
	<-aStarted

	// Region A is demonstrably active (one of its bodies is blocked) and
	// cannot complete until released. Region B must still split.
	ForceFor(8, func(s, e int) { bChunks.Add(1) })

	if got := bChunks.Load(); got < 2 {
		t.Errorf("concurrent region ran in %d chunk(s), want it cut into several", got)
	}
	select {
	case <-aDone:
		t.Error("region A completed while one of its bodies was still held")
	default:
	}
	close(release)
	select {
	case <-aDone:
	case <-time.After(30 * time.Second):
		t.Fatal("region A did not complete after release: ranges were lost")
	}
	if got := aChunks.Load(); got != 8 {
		t.Errorf("region A ran %d chunks, want 8", got)
	}
}

// TestTwoGoroutinesLaunchConcurrently runs two independent regions from
// two goroutines through a rendezvous that guarantees they overlap in
// time, then checks both fanned out and both covered their ranges.
func TestTwoGoroutinesLaunchConcurrently(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	var live [2]atomic.Int32
	var overlapped atomic.Bool
	var chunks [2]atomic.Int32
	var covered [2]int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ForceFor(64, func(s, e int) {
				chunks[g].Add(1)
				live[g].Add(1)
				// Watch briefly for the other region being live at the
				// same instant; one sighting anywhere is enough.
				deadline := time.Now().Add(100 * time.Millisecond)
				for !overlapped.Load() && time.Now().Before(deadline) {
					if live[1-g].Load() > 0 {
						overlapped.Store(true)
						break
					}
					time.Sleep(50 * time.Microsecond)
				}
				atomic.AddInt64(&covered[g], int64(e-s))
				live[g].Add(-1)
			})
		}()
	}
	wg.Wait()
	for g := 0; g < 2; g++ {
		if covered[g] != 64 {
			t.Errorf("region %d covered %d of 64", g, covered[g])
		}
		if chunks[g].Load() < 2 {
			t.Errorf("region %d ran in %d chunk(s), want fan-out", g, chunks[g].Load())
		}
	}
	if !overlapped.Load() {
		t.Error("the two regions were never live simultaneously")
	}
}

// TestPanicPropagatesFromTasks: a panic in any loop body — including
// bodies executed by helpers — must surface as a panic on the goroutine
// that submitted the region, with the original value, and leave the
// helpers healthy.
func TestPanicPropagatesFromTasks(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	for try := 0; try < 25; try++ {
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatal("panic in loop body did not propagate")
				}
				if s, ok := p.(string); !ok || s != "kernel exploded" {
					t.Fatalf("propagated %v, want the original panic value", p)
				}
			}()
			ForceFor(64, func(s, e int) {
				for i := s; i < e; i++ {
					if i == 13 {
						panic("kernel exploded")
					}
				}
			})
		}()
	}
	// Regions must remain fully usable after panics.
	var n int64
	ForceFor(64, func(s, e int) { atomic.AddInt64(&n, int64(e-s)) })
	if n != 64 {
		t.Fatalf("post-panic region covered %d of 64", n)
	}
}

// TestNestedPanicPropagates: a panic inside an inner region crosses
// both region boundaries and reaches the outermost submitter.
func TestNestedPanicPropagates(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	defer func() {
		if p := recover(); p != "inner kernel panic" {
			t.Fatalf("outer goroutine recovered %v, want inner panic value", p)
		}
	}()
	ForceFor(4, func(s, e int) {
		ForceFor(4, func(s, e int) {
			panic("inner kernel panic")
		})
	})
	t.Fatal("unreachable: nested panic was swallowed")
}

// TestSchedulerStress hammers every composition at once: concurrent
// submitters, nesting, varying sizes, and Do — the closest model of K
// simulated MD-GAN workers each driving their own kernels.
func TestSchedulerStress(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	var wg sync.WaitGroup
	var total int64
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch (g + i) % 3 {
				case 0:
					ForceFor(64, func(s, e int) {
						For(5000, func(is, ie int) {
							atomic.AddInt64(&total, int64(ie-is))
						})
					})
				case 1:
					For(20000, func(s, e int) {
						atomic.AddInt64(&total, int64(e-s))
					})
				case 2:
					Do(
						func() { atomic.AddInt64(&total, 1) },
						func() { atomic.AddInt64(&total, 1) },
						func() { atomic.AddInt64(&total, 1) },
					)
				}
			}
		}()
	}
	donech := make(chan struct{})
	go func() { wg.Wait(); close(donech) }()
	select {
	case <-donech:
	case <-time.After(120 * time.Second):
		t.Fatal("stress did not complete: likely deadlock")
	}
	if total == 0 {
		t.Fatal("stress loop did no work")
	}
}

// TestRegionCompletesWhileHelpersBlocked: a region submitted while the
// submitter and every helper of another region are blocked inside that
// region's bodies must complete on its own submitter alone — nobody
// waits on work nobody started.
func TestRegionCompletesWhileHelpersBlocked(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	for attempt := 1; ; attempt++ {
		// Region A: four ranges whose bodies all block, so once four have
		// started, A's submitter and all three helpers are held inside it.
		var started atomic.Int32
		release := make(chan struct{})
		aDone := make(chan struct{})
		go func() {
			defer close(aDone)
			ForceFor(4, func(s, e int) {
				started.Add(1)
				<-release
			})
		}()
		// A helper that had not yet parked after its previous region
		// misses A's offer; then only a retry can hold all three.
		deadline := time.Now().Add(time.Second)
		for started.Load() < 4 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		held := started.Load() == 4
		if held {
			// The unsynchronised append is the assertion: any second
			// participant is a data race under -race, and breaks the
			// ascending order without it.
			var order []int
			ForceFor(16, func(s, e int) { order = append(order, s) })
			if len(order) != 16 {
				t.Errorf("region B ran %d ranges, want 16", len(order))
			}
			for i, s := range order {
				if s != i {
					t.Errorf("region B range %d started at %d: not run by the submitter alone", i, s)
				}
			}
		}
		close(release)
		<-aDone
		if held {
			return
		}
		if attempt == 20 {
			t.Fatal("could not hold every helper inside region A in 20 attempts")
		}
	}
}

// countRanger is a pointer-backed loop body, the shape allocation-free
// kernels pass to ForGrainRanger.
type countRanger struct{ chunks, indices atomic.Int64 }

func (c *countRanger) Range(lo, hi int) {
	c.chunks.Add(1)
	c.indices.Add(int64(hi - lo))
}

// TestFannedOutRangerRegionDoesNotAllocate: submitting a region with a
// pointer Ranger, handing it to helpers and joining them performs no
// heap allocation in steady state.
func TestFannedOutRangerRegionDoesNotAllocate(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	c := new(countRanger)
	region := func() { ForGrainRanger(64, 1, c) }
	region() // spawn the helpers, fill the region pool
	const runs = 200
	allocs := testing.AllocsPerRun(runs, region)
	if got, want := c.chunks.Load(), int64(64*(runs+2)); got != want {
		t.Fatalf("ran %d chunks, want %d: the regions were not cut at the grain", got, want)
	}
	if got, want := c.indices.Load(), int64(64*(runs+2)); got != want {
		t.Fatalf("covered %d indices, want %d", got, want)
	}
	if allocs != 0 {
		t.Fatalf("a fanned-out ForGrainRanger allocates %v times per region, want 0", allocs)
	}
}
