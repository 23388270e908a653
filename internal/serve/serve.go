// Package serve is the generator-serving tier: an HTTP front end that
// loads a trained generator checkpoint and answers sampling requests at
// batch efficiency. Training PRs made one Forward over a batch far
// cheaper than many Forwards over singles (packed GEMM, batched
// im2col); serving exploits exactly that by COALESCING concurrent
// requests: the latent draws of every request that is waiting when a
// replica becomes free are fused, up to Config.MaxBatch samples, into
// ONE batched Generator.Forward call.
//
// Batching is work-conserving — there is no batch window. A replica
// takes the first request, takes whatever else is already queued
// without blocking, and runs the forward; requests that arrive while it
// runs are the next batch. So an idle replica never makes a lone caller
// wait for co-travellers that may not come, and fusion grows by itself
// exactly when a queue does: the longer the forward, the more callers
// it finds waiting afterwards. Between the first request and the rest
// the replica yields the processor once. Callers released by the
// previous batch (or woken by the network poller) are runnable but have
// not reached the queue yet, and the channel hand-off of the first
// request makes the replica the next goroutine to run; without the
// yield a GOMAXPROCS=1 server would never fuse anything.
//
// Ownership: a generator is not safe for concurrent use, and its
// Forward result is a module-owned buffer valid only until the next
// Forward (the clone-or-corrupt contract of internal/nn). The coalescer
// therefore owns its generator exclusively — one goroutine per replica,
// no locks around the model — and copies each request's slice of the
// fused output into a pooled per-request response tensor BEFORE the
// next batch's Forward can clobber it. The /statusz sample preview is a
// retained cache and clones for the same reason (contract_test.go pins
// both sites). Config.Replicas > 1 runs that many independent
// generator copies pulling from one shared request queue — the
// multi-core layout; each replica owns its generator and latent RNG.
//
// Hot reload: Reload() builds a spare generator, fills it from the
// checkpoint (Config.Load), and only then publishes it to the replicas,
// which adopt it at a batch boundary — requests are always answered by
// a fully-loaded generator, never a half-swapped one. A failed load
// (missing, truncated, wrong-architecture checkpoint) leaves the
// serving generator untouched. Reloads are cheap: the MDG\x02
// checkpoint format loads either dtype's frames into either build.
// Command mdgan-serve wires SIGHUP and POST /reload to Reload.
//
// Endpoints: POST /sample?n=&format=raw|png&labels=&cols= draws n
// samples (raw = one tensor wire frame, shape (n, out...); png = a
// rendered grid for image-shaped generators), GET /healthz is the
// liveness probe, GET /statusz reports counters (samples/sec, batch
// histogram, latency percentiles, reload count) as JSON, GET /preview
// renders the cached last batch, POST /reload hot-reloads.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdgan/internal/gan"
	"mdgan/internal/render"
	"mdgan/internal/tensor"
)

// Config parameterises a Server. New and Load are required; zero values
// elsewhere select the noted defaults.
type Config struct {
	// New builds a fresh generator of the served architecture (shapes
	// only — parameters are overwritten by Load). Called once per
	// replica at startup and once per reload.
	New func() *gan.Generator
	// Load fills a generator's parameters, typically from a checkpoint
	// file. A Load error at reload time leaves the old generator
	// serving.
	Load func(*gan.Generator) error

	MaxBatch int   // max samples fused into one Forward; default 64
	Replicas int   // independent generator copies; default 1
	Seed     int64 // latent-stream seed (replica i uses Seed+i); default 1
}

// previewSamples caps the cached /preview batch.
const previewSamples = 16

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// request is one caller waiting for a replica.
type request struct {
	ctx    context.Context // done → dropped at batch assembly, costing no forward row
	n      int
	labels []int         // nil → drawn uniformly by the coalescer
	done   chan response // buffered(1); exactly one response is sent
}

// response hands the caller its slice of the fused batch, copied into a
// pooled tensor the caller releases via putResponse.
type response struct {
	x      *tensor.Tensor
	labels []int
	err    error
}

// replica is one exclusively-owned generator driven by its own
// coalescer goroutine.
type replica struct {
	id    int
	g     *gan.Generator
	next  atomic.Pointer[gan.Generator] // pending hot-reload, adopted at batch boundary
	carry *request                      // request received past the batch budget; leads the next batch
}

// Server coalesces sampling requests into batched generator forwards.
// It implements http.Handler.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	reqs     chan *request
	stop     chan struct{}
	wg       sync.WaitGroup
	closed   sync.Once
	replicas []*replica
	stats    stats

	zdim, classes int
	outShape      []int // per-sample output shape
	sampleVol     int

	previewMu sync.Mutex
	preview   *tensor.Tensor // cloned slice of the last fused batch

	bufPool sync.Pool // *[]byte response-encode buffers
}

var errClosing = errors.New("serve: server shutting down")

// NewServer loads the checkpoint into Config.Replicas generator copies
// and starts the coalescer goroutines. The returned server is ready to
// answer requests; stop it with Close.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.New == nil || cfg.Load == nil {
		return nil, errors.New("serve: Config.New and Config.Load are required")
	}
	first := cfg.New()
	if err := cfg.Load(first); err != nil {
		return nil, fmt.Errorf("serve: initial checkpoint load: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		reqs:    make(chan *request),
		stop:    make(chan struct{}),
		zdim:    first.ZDim,
		classes: first.Classes,
	}
	s.stats.start = time.Now()
	s.bufPool.New = func() any { b := make([]byte, 0, 1024); return &b }
	// Probe the per-sample output shape with a throwaway forward (its
	// RNG is separate from the serving latent streams, which start
	// fresh per replica).
	probe := rand.New(rand.NewSource(cfg.Seed - 1))
	z, labels := first.SampleZ(1, probe)
	out := first.Forward(z, labels, false)
	s.outShape = append([]int(nil), out.Shape()[1:]...)
	s.sampleVol = out.Size()
	for i := 0; i < cfg.Replicas; i++ {
		g := first
		if i > 0 {
			g = first.Clone()
		}
		r := &replica{id: i, g: g}
		s.replicas = append(s.replicas, r)
		s.wg.Add(1)
		go s.runReplica(r)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/sample", s.handleSample)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/reload", s.handleReload)
	s.mux.HandleFunc("/preview", s.handlePreview)
	return s, nil
}

// Close stops the coalescer goroutines and waits for in-flight batches
// to be answered. Requests parked on the queue are failed with 503.
func (s *Server) Close() {
	s.closed.Do(func() {
		close(s.stop)
		s.wg.Wait()
	})
}

// Reload builds a spare generator, loads the checkpoint into it, and
// publishes it to every replica; each adopts at its next batch
// boundary. On error the serving generators are untouched.
func (s *Server) Reload() error {
	g := s.cfg.New()
	if err := s.cfg.Load(g); err != nil {
		s.stats.reloadFails.Add(1)
		return fmt.Errorf("serve: reload: %w", err)
	}
	// Build every replica's copy BEFORE publishing any of them: once a
	// pointer is stored, that replica may adopt it and start Forward
	// concurrently, and cloning a generator another goroutine is using
	// would couple correctness to Forward never mutating parameters.
	gs := make([]*gan.Generator, len(s.replicas))
	gs[0] = g
	for i := 1; i < len(gs); i++ {
		gs[i] = g.Clone()
	}
	for i, r := range s.replicas {
		r.next.Store(gs[i])
	}
	s.stats.reloads.Add(1)
	return nil
}

// Stopped reports whether Close has begun.
func (s *Server) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// runReplica is the coalescer loop: take the requests that are waiting,
// fuse their latent draws into one Forward, copy each request's slice
// out of the module-owned output buffer, respond, repeat. The replica's
// generator is touched by no other goroutine.
func (s *Server) runReplica(r *replica) {
	defer s.wg.Done()
	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(r.id)))
	for {
		rq := r.carry
		r.carry = nil
		if rq == nil {
			select {
			case <-s.stop:
				return
			case rq = <-s.reqs:
			}
		}
		// Adopt a pending hot-reload strictly between batches: the
		// batch below is served either fully by the old generator or
		// fully by the new one.
		if ng := r.next.Swap(nil); ng != nil {
			r.g = ng
		}
		// One yield, so callers that are runnable but not yet queued
		// get there (package doc); then whoever is waiting, and nobody
		// who is not.
		runtime.Gosched()
		var batch []*request
		total := 0
	collect:
		for {
			switch err := rq.ctx.Err(); {
			case err != nil:
				rq.done <- response{err: err} // client gone: no forward row
			case total+rq.n > s.cfg.MaxBatch:
				r.carry = rq // leads the next batch
				break collect
			default:
				batch = append(batch, rq)
				total += rq.n
			}
			if total == s.cfg.MaxBatch {
				break
			}
			select {
			case rq = <-s.reqs:
			default:
				break collect
			}
		}
		if total == 0 {
			continue // every request taken had been abandoned
		}

		// One fused forward for the whole batch. SampleZ draws the
		// latents AND uniform labels from the replica's stream —
		// exactly the serial draw order, so tests can replay it —
		// and requests that pinned labels overwrite their region.
		z, labels := r.g.SampleZ(total, rng)
		off := 0
		for _, rq := range batch {
			if rq.labels != nil {
				copy(labels[off:], rq.labels)
			}
			off += rq.n
		}
		out := r.g.Forward(z, labels, false)
		s.stats.forwards.Add(1)
		s.stats.samples.Add(int64(total))
		s.stats.requests.Add(int64(len(batch)))
		s.stats.batchHist[histBucket(total)].Add(1)

		// Copy each request's slice out of the generator-owned buffer
		// before this loop can run Forward again — the response tensors
		// are pooled and released by the handler after encoding.
		off = 0
		for _, rq := range batch {
			t := tensor.Get(append([]int{rq.n}, s.outShape...)...)
			copy(t.Data, out.Data[off*s.sampleVol:(off+rq.n)*s.sampleVol])
			var lab []int
			if labels != nil {
				lab = append([]int(nil), labels[off:off+rq.n]...)
			}
			rq.done <- response{x: t, labels: lab}
			off += rq.n
		}
		s.cachePreview(out)

		if s.stopped() {
			if r.carry != nil {
				r.carry.done <- response{err: errClosing}
				r.carry = nil
			}
			return
		}
	}
}

// cachePreview clones the head of the fused batch for /preview — the
// retained-across-batches site, so it must NOT alias the generator's
// output buffer (contract_test.go corrupts a non-cloning cache).
func (s *Server) cachePreview(out *tensor.Tensor) {
	n := min(previewSamples, out.Dim(0))
	s.previewMu.Lock()
	s.preview = tensor.Ensure(s.preview, append([]int{n}, s.outShape...)...)
	copy(s.preview.Data, out.Data[:n*s.sampleVol])
	s.previewMu.Unlock()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// badRequest is a Sample error that is the caller's fault: POST /sample
// answers it with 400 and this text, anything else with 503.
type badRequest string

func (e badRequest) Error() string { return "serve: " + string(e) }

// Sample draws n samples through the coalescer — the in-process
// equivalent of POST /sample, used by tests and embedding callers. The
// returned tensor is pooled; pass it to Release when done.
func (s *Server) Sample(n int, labels []int) (*tensor.Tensor, []int, error) {
	return s.sample(context.Background(), n, labels)
}

// sample is Sample for a caller that may give up (POST /sample passes
// the request context): once ctx is done the request leaves the queue,
// or is dropped when a replica assembles its batch, and costs no
// forward row.
//
// This is the one place a request is validated (the HTTP handler only
// parses): a bad label that reaches the coalescer panics in the replica
// goroutine (nil-slice copy on an unconditional generator, embedding
// index out of range on a conditional one) and takes the whole server
// down.
func (s *Server) sample(ctx context.Context, n int, labels []int) (*tensor.Tensor, []int, error) {
	if n <= 0 || n > s.cfg.MaxBatch {
		return nil, nil, badRequest(fmt.Sprintf("n must be in 1..%d", s.cfg.MaxBatch))
	}
	if labels != nil {
		if s.classes == 0 {
			return nil, nil, badRequest("generator is unconditional: labels not supported")
		}
		if len(labels) != n {
			return nil, nil, badRequest(fmt.Sprintf("%d labels for n=%d", len(labels), n))
		}
		for _, l := range labels {
			if l < 0 || l >= s.classes {
				return nil, nil, badRequest(fmt.Sprintf("labels must be integers in 0..%d", s.classes-1))
			}
		}
	}
	s.stats.waiting.Add(1)
	defer s.stats.waiting.Add(-1)
	rq := &request{ctx: ctx, n: n, labels: labels, done: make(chan response, 1)}
	select {
	case s.reqs <- rq:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	case <-s.stop:
		return nil, nil, errClosing
	}
	resp := <-rq.done
	return resp.x, resp.labels, resp.err
}

// Release returns a Sample result to the tensor pool.
func (s *Server) Release(t *tensor.Tensor) { tensor.Put(t) }

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	n := 1
	if v := q.Get("n"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
	}
	var labels []int
	if v := q.Get("labels"); v != "" {
		for _, part := range strings.Split(v, ",") {
			l, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				http.Error(w, "labels must be comma-separated integers", http.StatusBadRequest)
				return
			}
			labels = append(labels, l)
		}
	}
	format := q.Get("format")
	if format == "" {
		format = "raw"
	}
	if format != "raw" && format != "png" {
		http.Error(w, "format must be raw or png", http.StatusBadRequest)
		return
	}

	start := time.Now()
	t, lab, err := s.sample(r.Context(), n, labels)
	if bad := badRequest(""); errors.As(err, &bad) {
		http.Error(w, string(bad), http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer s.Release(t)
	s.stats.recordLatency(time.Since(start))

	switch format {
	case "raw":
		// One tensor wire frame (dtype byte, rank, dims, payload) —
		// decodable by tensor.(*Tensor).ReadFrom in either build.
		bp := s.bufPool.Get().(*[]byte)
		buf := t.AppendBinary((*bp)[:0])
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
		w.Header().Set("X-MDGAN-Shape", joinInts(t.Shape()))
		w.Header().Set("X-MDGAN-Dtype", tensor.DTypeName)
		if lab != nil {
			w.Header().Set("X-MDGAN-Labels", joinInts(lab))
		}
		w.Write(buf)
		*bp = buf
		s.bufPool.Put(bp)
	case "png":
		cols := 8
		if v := q.Get("cols"); v != "" {
			if c, err := strconv.Atoi(v); err == nil && c > 0 {
				cols = c
			}
		}
		img, err := render.Grid(t, cols)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "image/png")
		png.Encode(w, img) // an error means the client has gone
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.stopped() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// Status snapshots the server's counters — the in-process equivalent
// of GET /statusz, used by the load benchmark and embedding callers.
func (s *Server) Status() Status {
	st := s.stats.snapshot()
	st.Dtype = tensor.DTypeName
	st.Replicas = s.cfg.Replicas
	st.MaxBatch = s.cfg.MaxBatch
	st.OutShape = s.outShape
	return st
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	st := s.Status()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if err := s.Reload(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	fmt.Fprintf(w, "reloaded (%d total)\n", s.stats.reloads.Load())
}

func (s *Server) handlePreview(w http.ResponseWriter, r *http.Request) {
	// Copy the cached batch under the lock, then render and encode to
	// the client without it: cachePreview takes previewMu after every
	// fused batch on every replica, so holding it across a PNG write to
	// a slow client would stall all sampling.
	s.previewMu.Lock()
	if s.preview == nil {
		s.previewMu.Unlock()
		http.Error(w, "no samples served yet", http.StatusNotFound)
		return
	}
	t := tensor.Get(s.preview.Shape()...)
	copy(t.Data, s.preview.Data)
	s.previewMu.Unlock()
	defer tensor.Put(t)
	img, err := render.Grid(t, 8)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "image/png")
	png.Encode(w, img)
}

// joinInts renders a shape or label list for an X-MDGAN-* header.
func joinInts(v []int) string {
	var sb strings.Builder
	for i, d := range v {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(d))
	}
	return sb.String()
}
