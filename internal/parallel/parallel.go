// Package parallel schedules the data-parallel loops of every compute
// kernel in the code base. It is the only place that decides how many
// goroutines a kernel may use, so the policy (and its test hooks) live
// here.
//
// A region is a flat fork-join over one shared cursor. The submitting
// goroutine offers the region to idle helpers — persistent goroutines
// parked in a receive on an unbuffered channel, so an offer succeeds
// only when a helper can start at once — and then every participant,
// the submitter included, pulls grain-sized [lo, hi) ranges off the
// cursor until it is exhausted. The submitter waits only for the
// helpers that accepted, never on work nobody started.
//
// Regions therefore compose without any notion of which goroutine is
// calling: a For reached from inside another For's loop body, or from
// one of many concurrent goroutines (one per simulated MD-GAN worker),
// takes whatever helpers are idle and does the rest itself. When the
// callers already fill the cores no helper is idle and the kernel runs
// inline on its caller, which is the right answer.
//
// Loop bodies may submit nested regions freely. A body that blocks
// holds up only its own region: the goroutine it runs on is not
// available to other regions while it is blocked, and they complete
// without it.
//
// A panic inside a loop body — on the submitter or on a helper — is
// recovered, the rest of the region is abandoned, and the panic value
// is re-raised on the goroutine that submitted the region.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// serialGrain is the loop length below which For runs inline; under
// ~4096 scalar iterations the hand-off to a helper costs more than it
// saves for the kernels in this repo.
const serialGrain = 4096

// splitMul is the number of grains per participant a region is cut into
// when no explicit grain is given: enough slack for the cursor to
// balance uneven bodies without drowning in per-range overhead.
const splitMul = 8

// maxProcsOverride pins the degree of parallelism for tests; 0 means
// use GOMAXPROCS.
var maxProcsOverride atomic.Int32

// procs returns the degree of parallelism to use.
func procs() int {
	if n := maxProcsOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetMaxProcs overrides the parallelism target used by For, ForGrain,
// ForceFor and Do. n <= 0 restores the default (GOMAXPROCS). n == 1
// forces every region inline on its calling goroutine (serial order).
// For n > 1 a region runs on its submitter plus at most n-1 helpers,
// and the default grains cut it into about splitMul·n ranges.
func SetMaxProcs(n int) {
	if n <= 0 {
		maxProcsOverride.Store(0)
		return
	}
	maxProcsOverride.Store(int32(n))
}

// Ranger is the loop body of a parallel region in interface form: Range
// is invoked with disjoint [lo, hi) chunks, concurrently. ForGrainRanger
// takes it instead of a func so allocation-free hot paths can pool one
// pointer-backed implementation per call site — a pointer (or any
// pointer-shaped value) converts to the interface without heap
// allocation, where a fresh func literal always allocates its closure.
type Ranger interface {
	Range(lo, hi int)
}

// funcRanger adapts the closure-based entry points to the Ranger-based
// region internals. A func value is pointer-shaped, so the conversion
// does not allocate beyond the closure itself.
type funcRanger func(lo, hi int)

func (f funcRanger) Range(lo, hi int) { f(lo, hi) }

// region is one For/ForceFor/Do invocation. Regions are pooled
// (steady-state kernels submit thousands per iteration): a helper never
// touches one after its wg.Done, and the submitter recycles it only
// after wg.Wait, so no participant can reach a region's next life.
type region struct {
	fn       Ranger
	n, grain int
	next     atomic.Int64        // cursor: first index not yet handed out
	wg       sync.WaitGroup      // helpers that accepted the region
	panicked atomic.Pointer[any] // first panic value of any participant
}

var regionPool = sync.Pool{New: func() any { return new(region) }}

// work pulls ranges off the cursor until the region is exhausted. A
// panicking body exhausts it for everyone.
func (r *region) work() {
	defer func() {
		if p := recover(); p != nil {
			v := p // escapes; declared here so only a panic allocates
			r.panicked.CompareAndSwap(nil, &v)
			r.next.Store(int64(r.n))
		}
	}()
	for {
		lo := int(r.next.Add(int64(r.grain))) - r.grain
		if lo >= r.n {
			return
		}
		r.fn.Range(lo, min(lo+r.grain, r.n))
	}
}

var (
	// offers hands regions to helpers. It is unbuffered on purpose: a
	// non-blocking send succeeds only when a helper is parked in the
	// receive, so nothing is ever queued behind a busy goroutine.
	offers = make(chan *region)
	// helpers counts the live helper goroutines, at most procs()-1.
	helpers atomic.Int32
)

// enlist hands r to one more helper — a parked one, else a new one if
// fewer than procs()-1 are alive — and reports whether one took it.
func (r *region) enlist() bool {
	r.wg.Add(1)
	select {
	case offers <- r:
		return true
	default:
	}
	for h := helpers.Load(); int(h) < procs()-1; h = helpers.Load() {
		if helpers.CompareAndSwap(h, h+1) {
			go help(r)
			return true
		}
	}
	r.wg.Done() // every helper is busy: the callers fill the cores already
	return false
}

// help is the helper body: work on a region, then park for the next.
// Helpers are persistent so a steady-state training iteration never
// pays goroutine spawn cost; one retires after a region when the
// parallelism target has dropped below the live count.
func help(r *region) {
	for {
		r.work()
		r.wg.Done()
		if h := helpers.Load(); int(h) > procs()-1 && helpers.CompareAndSwap(h, h-1) {
			return
		}
		r = <-offers
	}
}

// runRegion executes fn over [0, n) in ranges of at most grain indices,
// returning when every index has executed. Callers guarantee n > grain
// >= 1 and procs() > 1.
func runRegion(n, grain int, fn Ranger) {
	r := regionPool.Get().(*region)
	r.fn, r.n, r.grain = fn, n, grain
	r.next.Store(0)
	// One participant per range at most, the submitter being one.
	invite := min(procs(), (n+grain-1)/grain) - 1
	for ; invite > 0 && r.enlist(); invite-- {
	}
	r.work()
	r.wg.Wait()
	p := r.panicked.Swap(nil)
	r.fn = nil
	regionPool.Put(r)
	if p != nil {
		panic(*p)
	}
}

// For runs fn over the half-open index ranges that partition [0, n).
// Each invocation receives a disjoint [start, end) chunk; fn must be
// safe to call concurrently on disjoint chunks. Small loops run inline;
// large ones are shared with idle helpers, composing freely with
// enclosing or concurrent parallel regions.
func For(n int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	p := procs()
	if n < serialGrain || p == 1 {
		fn(0, n)
		return
	}
	runRegion(n, max(n/(splitMul*p), serialGrain/4), funcRanger(fn))
}

// ForGrain behaves like For with an explicit grain: no chunk exceeds
// grain indices. Use it when the caller knows the per-index cost
// (kernels size their grain so one chunk amortises the scheduling
// overhead). n <= grain runs inline.
func ForGrain(n, grain int, fn func(start, end int)) {
	ForGrainRanger(n, grain, funcRanger(fn))
}

// ForGrainRanger is ForGrain for pre-built Ranger loop bodies: kernels
// that run every training iteration pool one pointer-backed Ranger and
// pass it here, so a steady-state region submission performs no heap
// allocation (a func-literal body would allocate its closure per call).
func ForGrainRanger(n, grain int, r Ranger) {
	if n <= 0 {
		return
	}
	grain = max(grain, 1)
	if n <= grain || procs() == 1 {
		r.Range(0, n)
		return
	}
	runRegion(n, grain, r)
}

// ForceFor behaves like For but fans out even for small n. It is
// intended for coarse-grained tasks (one unit of work per index is
// itself expensive, e.g. a per-image im2col).
func ForceFor(n int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	p := procs()
	if n == 1 || p == 1 {
		fn(0, n)
		return
	}
	runRegion(n, max(n/(splitMul*p), 1), funcRanger(fn))
}

// Do runs the given tasks concurrently and waits for all of them.
func Do(tasks ...func()) {
	ForGrain(len(tasks), 1, func(start, end int) {
		for i := start; i < end; i++ {
			tasks[i]()
		}
	})
}
