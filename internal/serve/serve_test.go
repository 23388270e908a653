package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"image/png"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/tensor"
)

// testArch is the small conditional MLP every serve test serves.
func testArch() gan.Arch { return gan.ScaledMLP(16) }

// copyParams copies src's learnable state into dst (same architecture).
func copyParams(dst, src *gan.Generator) {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		panic("copyParams: parameter count mismatch")
	}
	for i := range dp {
		dp[i].W.CopyFrom(sp[i].W)
	}
}

// newTestServer builds a server whose loader copies parameters from a
// reference generator (no filesystem), returning both.
func newTestServer(t *testing.T, mod func(*Config)) (*Server, *gan.Generator) {
	t.Helper()
	ref := testArch().NewGAN(7, nn.GenLossNonSaturating, 1).G
	cfg := Config{
		New:  func() *gan.Generator { return testArch().NewGAN(1, nn.GenLossNonSaturating, 1).G },
		Load: func(g *gan.Generator) error { copyParams(g, ref); return nil },
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, ref
}

// newRingServer serves the unconditional 2-D ring MLP: a forward so
// cheap that what a request costs is the serving path itself.
func newRingServer(t *testing.T) *Server {
	t.Helper()
	ref := gan.RingMLP().NewGAN(9, nn.GenLossNonSaturating, 1).G
	s, err := NewServer(Config{
		New:  func() *gan.Generator { return gan.RingMLP().NewGAN(1, nn.GenLossNonSaturating, 1).G },
		Load: func(g *gan.Generator) error { copyParams(g, ref); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// replayGenerator builds a fresh generator carrying ref's parameters,
// for replaying the server's deterministic latent stream.
func replayGenerator(ref *gan.Generator) *gan.Generator {
	g := testArch().NewGAN(2, nn.GenLossNonSaturating, 1).G
	copyParams(g, ref)
	return g
}

// gate is a parameterless identity layer appended to the test
// generator: once armed it parks the next forward that reaches it until
// the test opens it, so a test can hold a replica busy, let callers
// queue behind the running forward, and assert how they are fused —
// with no timer anywhere.
type gate struct {
	armed   atomic.Bool
	entered chan struct{} // closed when the held forward arrives
	open    chan struct{} // closed by the test to let it through
}

func (g *gate) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.open
	}
	return x
}
func (g *gate) Backward(grad *tensor.Tensor) *tensor.Tensor { return grad }
func (g *gate) Params() []*nn.Param                         { return nil }
func (g *gate) Clone() nn.Layer                             { return g }

// newGatedServer builds a single-replica test server whose forward #1
// (the first after NewServer's shape probe) is already running and held
// at the gate on behalf of one Sample(1, nil) caller. The caller's
// result arrives on the returned channel after the test closes
// gate.open.
func newGatedServer(t *testing.T, mod func(*Config)) (*Server, *gate, <-chan error) {
	t.Helper()
	gt := &gate{entered: make(chan struct{}), open: make(chan struct{})}
	s, _ := newTestServer(t, func(c *Config) {
		build := c.New
		c.New = func() *gan.Generator {
			g := build()
			g.Net.Layers = append(g.Net.Layers, gt)
			return g
		}
		if mod != nil {
			mod(c)
		}
	})
	gt.armed.Store(true)
	held := make(chan error, 1)
	go func() {
		x, _, err := s.Sample(1, nil)
		if err == nil {
			s.Release(x)
		}
		held <- err
	}()
	<-gt.entered
	return s, gt, held
}

// awaitQueued blocks until exactly n callers are parked on the hand-off
// to a replica, then checks the waiting gauge against them (plus inflight
// callers a replica is serving). The gauge alone cannot say "queued": it
// counts a caller from a few instructions before it parks, and the
// coalescer's non-blocking drain only finds callers that have parked.
// Only the runtime can report that, so this reads the goroutine dump: a
// goroutine in state [select] inside sample is parked on its one select.
func awaitQueued(t *testing.T, s *Server, n, inflight int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		queued := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "serve.(*Server).sample(") {
				queued++
			}
		}
		if queued == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d callers queued, want %d", queued, n)
		}
	}
	if got := s.Status().Waiting; got != int64(n+inflight) {
		t.Fatalf("waiting gauge = %d with %d queued and %d in flight", got, n, inflight)
	}
}

// TestCoalescingFusesConcurrentRequests is the headline contract: N
// single-sample requests that queue while a forward is running must
// cost exactly ONE more generator forward.
func TestCoalescingFusesConcurrentRequests(t *testing.T) {
	const n = 8
	s, gt, held := newGatedServer(t, func(c *Config) { c.MaxBatch = n })
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, _, err := s.Sample(1, nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Release(x)
			if x.Dim(0) != 1 {
				t.Errorf("sample dim %d, want 1", x.Dim(0))
			}
		}()
	}
	awaitQueued(t, s, n, 1)
	close(gt.open)
	wg.Wait()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if got := s.stats.forwards.Load(); got != 2 {
		t.Fatalf("%d requests queued behind one forward cost %d more forwards, want 1 (coalescing broken)", n, got-1)
	}
	if got := s.stats.samples.Load(); got != n+1 {
		t.Fatalf("samples counter = %d, want %d", got, n+1)
	}
	if got := s.stats.requests.Load(); got != n+1 {
		t.Fatalf("requests counter = %d, want %d", got, n+1)
	}
	if got := s.Status().Waiting; got != 0 {
		t.Fatalf("waiting gauge = %d after every caller returned, want 0", got)
	}
}

// TestLoneCallerDoesNotWait: an idle replica serves a lone request at
// once. With a batch window every one of these calls waited the window
// out for co-travellers that never came (2 ms each: 400 ms).
func TestLoneCallerDoesNotWait(t *testing.T) {
	s := newRingServer(t)
	const calls = 200
	start := time.Now()
	for i := 0; i < calls; i++ {
		x, _, err := s.Sample(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Release(x)
	}
	if el := time.Since(start); el > calls*time.Millisecond {
		t.Fatalf("%d sequential lone requests took %v: an idle replica made them wait", calls, el)
	}
	if got := s.stats.forwards.Load(); got != calls {
		t.Fatalf("%d sequential requests cost %d forwards", calls, got)
	}
}

// TestClosedLoopCallersFuse: with nothing but the running forward to
// wait behind, 32 closed-loop callers still share forwards — also on
// one processor, the case the coalescer's yield exists for (without it
// the replica runs ahead of the callers it has just released and every
// batch is a single request).
func TestClosedLoopCallersFuse(t *testing.T) {
	for _, procs := range []int{1, 0} { // 0: leave GOMAXPROCS as it is
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			if procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			}
			s, _ := newTestServer(t, nil)
			var wg sync.WaitGroup
			for c := 0; c < 32; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						x, _, err := s.Sample(1, nil)
						if err != nil {
							t.Error(err)
							return
						}
						s.Release(x)
					}
				}()
			}
			wg.Wait()
			st := s.Status()
			if st.Samples != 32*50 {
				t.Fatalf("samples = %d, want %d", st.Samples, 32*50)
			}
			if st.AvgBatch <= 1 {
				t.Fatalf("avg batch %.2f over %d forwards: closed-loop callers never fused", st.AvgBatch, st.Forwards)
			}
		})
	}
}

// TestAbandonedRequestCostsNoForwardRow: a caller whose context is done
// leaves the queue (or is dropped at batch assembly) without a forward
// row and without a pooled response nobody would release.
func TestAbandonedRequestCostsNoForwardRow(t *testing.T) {
	s, gt, held := newGatedServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, _, err := s.sample(ctx, 3, nil)
		gone <- err
	}()
	awaitQueued(t, s, 1, 1) // behind the held forward
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned request returned %v, want context.Canceled", err)
	}
	close(gt.open)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	// Already-cancelled callers on the now idle replica: the hand-off
	// and ctx.Done are both ready, so some of these reach the replica
	// and are dropped there.
	for i := 0; i < 64; i++ {
		if x, _, err := s.sample(ctx, 3, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled request returned (%v, %v), want context.Canceled", x, err)
		}
	}
	if f, n, r := s.stats.forwards.Load(), s.stats.samples.Load(), s.stats.requests.Load(); f != 1 || n != 1 || r != 1 {
		t.Fatalf("forwards/samples/requests = %d/%d/%d after abandoned requests, want 1/1/1", f, n, r)
	}
}

// TestResponsesMatchSerialReplay pins determinism and copy correctness:
// a single-replica server's responses must equal a serial replay of the
// same latent stream through an identical generator, bitwise.
func TestResponsesMatchSerialReplay(t *testing.T) {
	s, ref := newTestServer(t, func(c *Config) {
		c.Seed = 11
	})
	rep := replayGenerator(ref)
	rng := rand.New(rand.NewSource(11)) // Seed + replica id 0

	for _, n := range []int{3, 2, 5} {
		got, gotLab, err := s.Sample(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		z, lab := rep.SampleZ(n, rng)
		want := rep.Forward(z, lab, false)
		if !got.Equal(want, 0) {
			t.Fatalf("Sample(%d) diverged from the serial replay", n)
		}
		for i := range lab {
			if gotLab[i] != lab[i] {
				t.Fatalf("Sample(%d) labels %v, replay %v", n, gotLab, lab)
			}
		}
		s.Release(got)
	}
}

// TestPinnedLabelsOverrideDraw: a request carrying explicit labels must
// be generated with them.
func TestPinnedLabelsOverrideDraw(t *testing.T) {
	s, ref := newTestServer(t, func(c *Config) { c.Seed = 13 })
	rep := replayGenerator(ref)
	rng := rand.New(rand.NewSource(13))

	want := []int{3, 1, 4}
	got, gotLab, err := s.Sample(3, want)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release(got)
	for i := range want {
		if gotLab[i] != want[i] {
			t.Fatalf("labels %v, want %v", gotLab, want)
		}
	}
	z, _ := rep.SampleZ(3, rng)
	ref2 := rep.Forward(z, want, false)
	if !got.Equal(ref2, 0) {
		t.Fatal("pinned-label sample diverged from replay with the same labels")
	}
}

// zeroLoader zeroes every parameter; biasLoader additionally sets the
// output-layer bias to 1, so the two checkpoints produce uniform but
// visibly different outputs — any mid-batch mix of the two would be a
// half-swapped generator.
func zeroLoader(g *gan.Generator) error {
	for _, p := range g.Params() {
		p.W.Zero()
	}
	return nil
}

func biasLoader(g *gan.Generator) error {
	zeroLoader(g)
	params := g.Params()
	// The output Dense bias is the last 784-sized parameter.
	for i := len(params) - 1; i >= 0; i-- {
		if params[i].W.Size() == 784 {
			for j := range params[i].W.Data {
				params[i].W.Data[j] = 1
			}
			return nil
		}
	}
	return fmt.Errorf("no 784-sized bias found")
}

// TestReloadSwapsAtomicallyUnderLoad: hammer the server while flipping
// between two checkpoints whose outputs are uniform constants. Every
// response must be uniformly one constant — a mixed response means a
// batch ran on a half-swapped generator.
func TestReloadSwapsAtomicallyUnderLoad(t *testing.T) {
	var mu sync.Mutex
	useBias := false
	s, _ := newTestServer(t, func(c *Config) {
		c.MaxBatch = 8
		c.Load = func(g *gan.Generator) error {
			mu.Lock()
			defer mu.Unlock()
			if useBias {
				return biasLoader(g)
			}
			return zeroLoader(g)
		}
	})

	// The two uniform output constants: tanh(0) and tanh(1) as the net
	// computes them.
	probe := testArch().NewGAN(3, nn.GenLossNonSaturating, 1).G
	zeroLoader(probe)
	rng := rand.New(rand.NewSource(99))
	z, lab := probe.SampleZ(1, rng)
	c0 := probe.Forward(z, lab, false).Data[0]
	biasLoader(probe)
	c1 := probe.Forward(z, lab, false).Data[0]
	if c0 == c1 {
		t.Fatal("test checkpoints are not distinguishable")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				x, _, err := s.Sample(4, nil)
				if err != nil {
					t.Error(err)
					return
				}
				first := x.Data[0]
				if first != c0 && first != c1 {
					t.Errorf("response value %v is neither checkpoint's constant", first)
				}
				for _, v := range x.Data {
					if v != first {
						t.Errorf("mixed response (%v and %v): served by a half-swapped generator", first, v)
						break
					}
				}
				s.Release(x)
			}
		}()
	}
	for i := 0; i < 40; i++ {
		mu.Lock()
		useBias = !useBias
		mu.Unlock()
		if err := s.Reload(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := s.stats.reloads.Load(); got != 40 {
		t.Fatalf("reload counter = %d, want 40", got)
	}
}

// TestReloadFailureKeepsServing: a reload whose checkpoint load fails
// must leave the serving generator untouched and count the failure.
func TestReloadFailureKeepsServing(t *testing.T) {
	fail := false
	var ref *gan.Generator
	s, r0 := newTestServer(t, func(c *Config) {
		base := c.Load
		c.Load = func(g *gan.Generator) error {
			if fail {
				return fmt.Errorf("injected load failure")
			}
			return base(g)
		}
		c.Seed = 21
	})
	ref = r0

	fail = true
	if err := s.Reload(); err == nil {
		t.Fatal("failing reload reported success")
	}
	if got := s.stats.reloadFails.Load(); got != 1 {
		t.Fatalf("reload_fails = %d, want 1", got)
	}
	if got := s.stats.reloads.Load(); got != 0 {
		t.Fatalf("reloads = %d, want 0", got)
	}

	// Still serving the original parameters.
	rep := replayGenerator(ref)
	rng := rand.New(rand.NewSource(21))
	got, _, err := s.Sample(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release(got)
	z, lab := rep.SampleZ(2, rng)
	want := rep.Forward(z, lab, false)
	if !got.Equal(want, 0) {
		t.Fatal("failed reload disturbed the serving generator")
	}
}

// TestCloseDrains: Close must answer or fail every queued request and
// not hang; requests after Close fail fast. The queue is real: sixteen
// callers wait behind a held forward when Close begins.
func TestCloseDrains(t *testing.T) {
	s, gt, held := newGatedServer(t, func(c *Config) { c.MaxBatch = 4 })
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, _, err := s.Sample(2, nil)
			if err == nil {
				s.Release(x)
			}
		}()
	}
	awaitQueued(t, s, 16, 1)
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	wg.Wait() // the queued callers are failed while the forward still runs
	close(gt.open)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung")
	}
	if err := <-held; err != nil {
		t.Fatalf("the in-flight request was failed by Close: %v", err)
	}
	if _, _, err := s.Sample(1, nil); err == nil {
		t.Fatal("Sample after Close succeeded")
	}
}

// TestReplicasServeConcurrently is the multi-core layout smoke: several
// replicas pulling one queue under the race detector.
func TestReplicasServeConcurrently(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.Replicas = 3
		c.MaxBatch = 4
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				x, _, err := s.Sample(2, nil)
				if err != nil {
					t.Error(err)
					return
				}
				s.Release(x)
			}
		}()
	}
	wg.Wait()
	if got := s.stats.samples.Load(); got != 8*20*2 {
		t.Fatalf("samples = %d, want %d", got, 8*20*2)
	}
}

// --- HTTP layer ---

func httpServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	s, _ := newTestServer(t, mod)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestHTTPSampleRaw(t *testing.T) {
	_, ts := httpServer(t, nil)
	resp, err := http.Post(ts.URL+"/sample?n=4", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-MDGAN-Shape"); got != "4,1,28,28" {
		t.Fatalf("shape header %q, want 4,1,28,28", got)
	}
	if got := resp.Header.Get("X-MDGAN-Dtype"); got != tensor.DTypeName {
		t.Fatalf("dtype header %q, want %s", got, tensor.DTypeName)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var x tensor.Tensor
	if _, err := x.ReadFrom(bytes.NewReader(body)); err != nil {
		t.Fatalf("response is not a tensor wire frame: %v", err)
	}
	if x.Rank() != 4 || x.Dim(0) != 4 || x.Dim(2) != 28 {
		t.Fatalf("decoded shape %v", x.Shape())
	}
	if lab := resp.Header.Get("X-MDGAN-Labels"); len(strings.Split(lab, ",")) != 4 {
		t.Fatalf("labels header %q, want 4 entries", lab)
	}
}

func TestHTTPSamplePNGAndPreview(t *testing.T) {
	_, ts := httpServer(t, nil)
	resp, err := http.Post(ts.URL+"/sample?n=4&format=png&cols=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Fatalf("content type %q", ct)
	}
	if _, err := png.Decode(resp.Body); err != nil {
		t.Fatalf("response is not a PNG: %v", err)
	}

	prev, err := http.Get(ts.URL + "/preview")
	if err != nil {
		t.Fatal(err)
	}
	defer prev.Body.Close()
	if prev.StatusCode != 200 {
		t.Fatalf("preview status %d", prev.StatusCode)
	}
	if _, err := png.Decode(prev.Body); err != nil {
		t.Fatalf("preview is not a PNG: %v", err)
	}
}

func TestHTTPHealthzAndStatusz(t *testing.T) {
	_, ts := httpServer(t, nil)
	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != 200 {
		t.Fatalf("healthz status %d", h.StatusCode)
	}

	if resp, err := http.Post(ts.URL+"/sample?n=2", "", nil); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	st, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	body, _ := io.ReadAll(st.Body)
	for _, want := range []string{`"forwards"`, `"samples_per_sec"`, `"batch_hist"`, `"reloads"`, `"latency_p99_ms"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("statusz missing %s: %s", want, body)
		}
	}
}

func TestHTTPReloadEndpoint(t *testing.T) {
	s, ts := httpServer(t, nil)
	resp, err := http.Post(ts.URL+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	if got := s.stats.reloads.Load(); got != 1 {
		t.Fatalf("reloads = %d, want 1", got)
	}
	// GET must not reload.
	g, _ := http.Get(ts.URL + "/reload")
	g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload status %d, want 405", g.StatusCode)
	}
}

func TestHTTPValidation(t *testing.T) {
	s, ts := httpServer(t, func(c *Config) { c.MaxBatch = 8 })
	for _, tc := range []struct {
		method, path string
		wantStatus   int
	}{
		{"GET", "/sample?n=1", http.StatusMethodNotAllowed},
		{"POST", "/sample?n=0", http.StatusBadRequest},
		{"POST", "/sample?n=9", http.StatusBadRequest}, // > MaxBatch
		{"POST", "/sample?n=abc", http.StatusBadRequest},
		{"POST", "/sample?n=2&labels=1", http.StatusBadRequest},    // count mismatch
		{"POST", "/sample?n=1&labels=99", http.StatusBadRequest},   // out of range
		{"POST", "/sample?n=1&format=jpeg", http.StatusBadRequest}, // unknown format
		{"POST", "/sample?n=1&labels=0,1", http.StatusBadRequest},  // count mismatch
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
	}
	if got := s.stats.forwards.Load(); got != 0 {
		t.Fatalf("invalid requests reached the generator (%d forwards)", got)
	}
}

// TestSampleValidatesLabels: the exported Go API must reject bad labels
// just like the HTTP handler does. Before the fix, an out-of-range
// label panicked inside the embedding lookup and a labeled request on
// an unconditional generator could panic slicing the nil label stream —
// both inside the replica goroutine, taking the whole server down.
func TestSampleValidatesLabels(t *testing.T) {
	s, _ := newTestServer(t, nil) // conditional: 10 classes
	for _, labels := range [][]int{{10}, {-1}, {0, 3}} {
		if _, _, err := s.Sample(1, labels); err == nil {
			t.Errorf("Sample(1, %v) on a 10-class generator succeeded, want error", labels)
		}
	}
	if got := s.stats.forwards.Load(); got != 0 {
		t.Fatalf("invalid labels reached the generator (%d forwards)", got)
	}
	// The server must still serve after rejecting garbage.
	x, _, err := s.Sample(1, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	s.Release(x)

	// Unconditional generator: any labels are an error, and a labeled
	// request must never park on the coalescer (where a batch offset > 0
	// would slice the nil label stream).
	u := newRingServer(t)
	if _, _, err := u.Sample(1, []int{0}); err == nil {
		t.Fatal("labeled Sample on an unconditional generator succeeded, want error")
	}
	x, lab, err := u.Sample(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lab != nil {
		t.Fatalf("unconditional Sample returned labels %v", lab)
	}
	u.Release(x)
}
