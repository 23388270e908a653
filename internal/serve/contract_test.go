package serve

// Buffer-ownership contract tests for the serving tier — the serve-side
// extension of internal/core/contract_test.go. Generator.Forward
// returns a module-owned buffer valid only until the generator's next
// Forward, so everything the server hands out or retains must be a
// copy: the coalescer's per-request response tensors and the /preview
// cache are the two retention sites. As in core, the first test
// demonstrates the corruption is REAL on the raw generator (if the
// ownership model ever changes, it fails loudly and this file plus the
// serve package doc must be revisited), and the rest pin that the
// server's copies actually escape it.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"mdgan/internal/nn"
	"mdgan/internal/tensor"
)

// TestServeForwardCloneOrCorrupt pins the hazard the coalescer is built
// around: retaining a Forward result across the next Forward corrupts
// it. The serving loop's response copies and preview clone exist
// because of exactly this.
func TestServeForwardCloneOrCorrupt(t *testing.T) {
	g := testArch().NewGAN(5, nn.GenLossNonSaturating, 1).G
	rng := rand.New(rand.NewSource(17))

	z1, l1 := g.SampleZ(4, rng)
	x1 := g.Forward(z1, l1, false) // retained WITHOUT clone — the bug shape
	kept := x1.Clone()             // what the coalescer's response copy stands in for

	z2, l2 := g.SampleZ(4, rng)
	x2 := g.Forward(z2, l2, false)

	if &x1.Data[0] != &x2.Data[0] {
		t.Fatal("Generator.Forward returned a fresh buffer: the clone-or-corrupt " +
			"contract changed — revisit the serve coalescer's response copies, " +
			"the /preview cache, and this test together")
	}
	differs := false
	for i := range kept.Data {
		if kept.Data[i] != x1.Data[i] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("second Forward left the retained buffer intact — corruption " +
			"demonstration failed, contract tests are no longer meaningful")
	}
}

// TestResponseSurvivesSubsequentBatches: a response handed to one
// request must stay intact while the same replica serves later batches
// — the two-concurrent-requests corruption regression. Pre-fix shape:
// handing out a view of the generator's output buffer passes every
// single-request test and corrupts the moment a second request's batch
// runs before the first response is encoded.
func TestResponseSurvivesSubsequentBatches(t *testing.T) {
	s, ref := newTestServer(t, func(c *Config) { c.Seed = 31 })
	rep := replayGenerator(ref)
	rng := rand.New(rand.NewSource(31))

	got, _, err := s.Sample(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release(got)
	z, lab := rep.SampleZ(4, rng)
	want := rep.Forward(z, lab, false).Clone()

	// Drive several more batches through the replica while the first
	// response is still held un-encoded — the window in which an
	// aliased response would be clobbered.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, _, err := s.Sample(4, nil)
			if err == nil {
				s.Release(x)
			}
		}()
	}
	wg.Wait()

	if !got.Equal(want, 0) {
		t.Fatal("earlier response corrupted by later batches: the coalescer " +
			"handed out a generator-owned buffer instead of a copy")
	}
}

// TestPreviewCacheDoesNotAliasGeneratorBuffer: the /preview cache is
// retained across batches, so it must be a clone of the fused output,
// never a view into the generator's buffer.
func TestPreviewCacheDoesNotAliasGeneratorBuffer(t *testing.T) {
	s, _ := newTestServer(t, nil)
	x, _, err := s.Sample(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Release(x)

	// The replica fills the cache after it has answered, so the answer
	// can get here first: wait for the cache rather than clone a nil one
	// (which panicked with previewMu held and hung Close in the cleanup).
	var snap *tensor.Tensor
	for deadline := time.Now().Add(10 * time.Second); snap == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("/preview cache never filled")
		}
		s.previewMu.Lock()
		if s.preview != nil {
			snap = s.preview.Clone()
		}
		s.previewMu.Unlock()
	}

	// Stop the replica goroutine so the generator may be driven from
	// here, then clobber its forward buffer directly.
	s.Close()
	g := s.replicas[0].g
	rng := rand.New(rand.NewSource(1234))
	z, lab := g.SampleZ(4, rng)
	g.Forward(z, lab, false)

	s.previewMu.Lock()
	defer s.previewMu.Unlock()
	if !s.preview.Equal(snap, 0) {
		t.Fatal("/preview cache aliases the generator's output buffer")
	}
}

// TestResponseTensorsAreIndependent: two requests fused into ONE batch
// (they queue behind a held forward, see gate) must receive responses backed by distinct storage (pooled copies),
// not adjacent views of the same fused buffer.
func TestResponseTensorsAreIndependent(t *testing.T) {
	const n = 2
	s, gt, first := newGatedServer(t, func(c *Config) { c.MaxBatch = 2 * n })
	results := make(chan *tensor.Tensor, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, _, err := s.Sample(n, nil)
			if err != nil {
				t.Error(err)
				return
			}
			results <- x
		}()
	}
	awaitQueued(t, s, n, 1)
	close(gt.open)
	wg.Wait()
	close(results)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if got := s.stats.forwards.Load(); got != 2 {
		t.Fatalf("requests queued behind one forward were not fused (%d more forwards)", got-1)
	}
	var held []*tensor.Tensor
	for x := range results {
		held = append(held, x)
	}
	if len(held) != n {
		t.Fatalf("got %d responses, want %d", len(held), n)
	}
	a, b := held[0], held[1]
	if &a.Data[0] == &b.Data[0] {
		t.Fatal("two fused requests share response storage")
	}
	// Mutating one response must not leak into the other.
	before := b.Clone()
	for i := range a.Data {
		a.Data[i] = -12345
	}
	if !b.Equal(before, 0) {
		t.Fatal("responses of one fused batch alias each other")
	}
	for _, x := range held {
		s.Release(x)
	}
}
