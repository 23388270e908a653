package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mdgan"
	"mdgan/internal/tensor"
)

// The serving workload drives the real mdgan-serve binary over HTTP.
// The benchmark process is the only load generator: two closed-loop
// keep-alive connections, an interactive stream of n=1 requests (the
// op) beside a bulk stream of n=64 requests. Two waiting callers cannot
// build a queue, so there is no offered-rate sweep: the figures are the
// latency an interactive caller sees while a bulk caller keeps the
// coalescer busy, and the samples both receive per second.

const (
	buildDir = ".bench_build"
	// serveWidth selects the daemon's default architecture, mlp:128; its
	// other flags keep their defaults too.
	serveWidth = 128
	bulkN      = 64
	// serveWarmReqs interactive and bulk requests each are answered
	// before a cold start counts as complete.
	serveWarmReqs = 10
)

// buildServer compiles cmd/mdgan-serve into the checkout's build
// directory. The go command does nothing when the binary is current.
func buildServer(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "mdgan-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/mdgan-serve")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mdgan-serve: %w", err)
	}
	return bin, nil
}

// writeCheckpoint makes the served generator from the seed.
func writeCheckpoint(seed int64) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("serve-seed%d.ckpt", seed))
	g := mdgan.MLPArch(serveWidth).NewGAN(seed, 0, 1).G
	return path, mdgan.SaveGenerator(g, path)
}

// server is one running mdgan-serve child.
type server struct {
	cmd     *exec.Cmd
	url     string
	done    chan error // receives cmd.Wait's result
	stopped sync.Once
}

// readySeq numbers the ready files of one benchmark process.
var readySeq atomic.Int64

// startServer execs the daemon on an ephemeral port and waits until it
// has written its address. Cancelling ctx kills the daemon.
func startServer(ctx context.Context, bin, ckpt string, seed int64, procs int) (*server, error) {
	ready := filepath.Join(outDir, fmt.Sprintf("serve-ready-%d-%d", os.Getpid(), readySeq.Add(1)))
	cmd := exec.CommandContext(ctx, bin, "-ckpt", ckpt, "-arch", fmt.Sprintf("mlp:%d", serveWidth), "-addr", "127.0.0.1:0",
		"-seed", strconv.FormatInt(seed, 10), "-ready-file", ready)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.After(20 * time.Second)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("mdgan-serve exited before listening: %v\n%s", err, logs.String())
		case <-deadline:
			s.stop()
			return nil, fmt.Errorf("mdgan-serve did not listen within 20 s\n%s", logs.String())
		case <-tick.C:
			if b, err := os.ReadFile(ready); err == nil && len(b) > 0 {
				os.Remove(ready)
				s.url = "http://" + string(b)
				return s, nil
			}
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if it does not leave
// within five seconds, and has reaped it when it returns.
func (s *server) stop() {
	s.stopped.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(5 * time.Second):
			s.cmd.Process.Kill()
			<-s.done
		}
	})
}

func (s *server) status() (mdgan.ServeStatus, error) {
	var st mdgan.ServeStatus
	resp, err := http.Get(s.url + "/statusz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// stream is one closed-loop keep-alive connection asking for n samples
// per request.
type stream struct {
	n      int
	url    string
	client *http.Client
	buf    bytes.Buffer
	out    tensor.Tensor

	opsMS  []float64
	bytes  int64
	failed []string

	// A traced phase also keeps a span per request.
	trace bool
	epoch time.Time
	spans []span
}

func newStream(base string, n int) *stream {
	return &stream{
		n:   n,
		url: fmt.Sprintf("%s/sample?n=%d", base, n),
		client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		},
	}
}

func (st *stream) close() { st.client.CloseIdleConnections() }

// request makes one timed request and checks its answer: status 200, a
// tensor frame that decodes to (n, 1, 28, 28), every value finite and
// inside tanh's range. The clock stops when the body has been read;
// checking is the caller's own time.
func (st *stream) request() {
	t0 := time.Now()
	resp, err := st.client.Post(st.url, "application/octet-stream", nil)
	if err != nil {
		st.fail(err.Error())
		return
	}
	st.buf.Reset()
	_, err = io.Copy(&st.buf, resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(t0)) / 1e6
	if err != nil {
		st.fail(err.Error())
		return
	}
	if resp.StatusCode != http.StatusOK {
		st.fail(fmt.Sprintf("status %d", resp.StatusCode))
		return
	}
	size := st.buf.Len()
	if _, err := st.out.ReadFrom(bytes.NewReader(st.buf.Bytes())); err != nil {
		st.fail("undecodable response: " + err.Error())
		return
	}
	if sh := st.out.Shape(); len(sh) != 4 || sh[0] != st.n || sh[1] != 1 || sh[2] != 28 || sh[3] != 28 {
		st.fail(fmt.Sprintf("response shape %v, want (%d, 1, 28, 28)", sh, st.n))
		return
	}
	for _, v := range st.out.Data {
		if f := float64(v); math.IsNaN(f) || f < -1 || f > 1 {
			st.fail(fmt.Sprintf("served value %v outside [-1, 1]", f))
			return
		}
	}
	st.opsMS = append(st.opsMS, ms)
	st.bytes += int64(size)
	if st.trace {
		st.requestSpan(t0, ms)
	}
}

func (st *stream) fail(msg string) {
	st.failed = append(st.failed, fmt.Sprintf("n=%d request: %s", st.n, msg))
}

// servePhase is one timed phase against one daemon.
type servePhase struct {
	inter, bulk *stream
	probes      []reading // At counts interactive ops
	wallS       float64   // timed wall, probe pauses excluded
	peakRSSKB   int64
	status      mdgan.ServeStatus
}

// runPhase loads the daemon, which runs at GOMAXPROCS=procs, for the
// given time and at least minOps interactive requests. Both streams
// pause at a barrier whenever the probe runs, so a reading never
// competes with the benchmark's own load.
func runPhase(ctx context.Context, s *server, seconds float64, procs, minOps int, trace bool) (*servePhase, error) {
	ph := &servePhase{inter: newStream(s.url, 1), bulk: newStream(s.url, bulkN)}
	defer ph.inter.close()
	defer ph.bulk.close()
	epoch := time.Now()
	for _, st := range []*stream{ph.inter, ph.bulk} {
		st.trace, st.epoch = trace, epoch
	}

	// The first reading needs no barrier: nothing is running yet.
	ph.probes = append(ph.probes, reading{At: 0, MS: readProbe(procs)})
	start := time.Now()
	pause := make(chan chan struct{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, st := range []*stream{ph.inter, ph.bulk} {
		wg.Add(1)
		go func(st *stream) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case resume := <-pause:
					<-resume
				default:
					st.request()
				}
			}
		}(st)
	}
	// read parks both streams between requests, reads the probe and
	// releases them. The streams touch their slices only outside the
	// barrier, so reading the lengths here is ordered by the channels.
	var paused time.Duration
	done := 0
	read := func() {
		t0 := time.Now()
		resume := make(chan struct{})
		pause <- resume
		pause <- resume
		done = len(ph.inter.opsMS) + len(ph.inter.failed)
		ph.probes = append(ph.probes, reading{At: len(ph.inter.opsMS), MS: readProbe(procs)})
		close(resume)
		paused += time.Since(t0)
	}
	for ctx.Err() == nil && (time.Since(start).Seconds() < seconds || done < minOps) {
		time.Sleep(probeEvery)
		read()
	}
	wall := time.Since(start) - paused
	close(stop)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The streams finished the requests in flight after the last
	// reading; one more brackets them.
	ph.probes = append(ph.probes, reading{At: len(ph.inter.opsMS), MS: readProbe(procs)})
	ph.wallS = wall.Seconds()
	ph.peakRSSKB = vmHWMKB(strconv.Itoa(s.cmd.Process.Pid)) // while the daemon is alive
	st, err := s.status()
	if err != nil {
		return nil, fmt.Errorf("/statusz: %w", err)
	}
	ph.status = st
	return ph, nil
}

// warm answers the requests a cold start must serve before it counts
// as up, and returns the failures.
func warm(s *server) []string {
	inter, bulk := newStream(s.url, 1), newStream(s.url, bulkN)
	defer inter.close()
	defer bulk.close()
	for i := 0; i < serveWarmReqs; i++ {
		inter.request()
		bulk.request()
	}
	return append(inter.failed, bulk.failed...)
}

// serveEndToEnd runs the serving workload with tracing off.
func serveEndToEnd(ctx context.Context, wl *workload, seed int64, seconds float64) (*runResult, error) {
	r := newRunResult(wl, seed, seconds)
	bin, err := buildServer(ctx)
	if err != nil {
		return nil, err
	}
	ckpt, err := writeCheckpoint(seed)
	if err != nil {
		return nil, err
	}
	// up starts a daemon and answers the warm-up requests: a cold start.
	up := func(procs int) (*server, error) {
		s, err := startServer(ctx, bin, ckpt, seed, procs)
		if err != nil {
			return nil, err
		}
		r.violate(warm(s)...)
		r.Attempted += 2 * serveWarmReqs
		return s, nil
	}
	for i := 0; i < setupStarts; i++ {
		cs := coldStart{BeforeMS: readProbe(numCPU())}
		t0 := time.Now()
		s, err := up(numCPU())
		if err != nil {
			return nil, err
		}
		cs.Seconds = time.Since(t0).Seconds()
		cs.AfterMS = readProbe(numCPU())
		s.stop()
		r.ColdStarts = append(r.ColdStarts, cs)
	}
	phase := func(procs int) (*servePhase, error) {
		s, err := up(procs)
		if err != nil {
			return nil, err
		}
		defer s.stop()
		return runPhase(ctx, s, phaseSeconds(seconds), procs, opsForTail(wl.tailQ), false)
	}
	all, err := phase(numCPU())
	if err != nil {
		return nil, err
	}
	one, err := phase(1)
	if err != nil {
		return nil, err
	}
	if err := r.serveMetrics(wl, all, one); err != nil {
		return nil, err
	}
	return r, nil
}

// count adds a phase's requests to the attempted and failed totals.
func (r *runResult) count(ph *servePhase) {
	for _, st := range []*stream{ph.inter, ph.bulk} {
		r.Attempted += len(st.opsMS) + len(st.failed)
		r.violate(st.failed...)
	}
}

// serveMetrics fills the end-to-end metrics of the serving workload.
func (r *runResult) serveMetrics(wl *workload, all, one *servePhase) error {
	r.count(all)
	r.count(one)
	sAll, err := stats(all.inter.opsMS, all.probes, 0)
	if err != nil {
		return fmt.Errorf("all-cores phase: %w", err)
	}
	sOne, err := stats(one.inter.opsMS, one.probes, wl.tailQ)
	if err != nil {
		return fmt.Errorf("one-core phase: %w", err)
	}
	setup, err := setupSeconds(r.ColdStarts)
	if err != nil {
		return err
	}
	// Samples delivered per second of reference-host time: the timed
	// wall shrinks by the same factor as the interactive stream's ops.
	samples := float64(len(all.inter.opsMS) + bulkN*len(all.bulk.opsMS))
	wall := all.wallS * sAll.mean / (sum(all.inter.opsMS) / float64(len(all.inter.opsMS)))
	r.set("setup_s", setup)
	r.set("op_ms_p50_1cpu", sOne.p50)
	r.set("op_ms_tail_1cpu", sOne.tail)
	r.set("op_ms_p50", sAll.p50)
	r.set("samples_per_s", samples/wall)
	r.set("wire_bytes_per_op", float64(all.inter.bytes)/float64(len(all.inter.opsMS)))
	r.set("peak_rss_mb", float64(all.peakRSSKB)/1024)
	r.phaseDiag(numCPU(), len(all.inter.opsMS), len(one.inter.opsMS), sAll, sOne)
	r.Diag["bulk_ops_all_cores"] = float64(len(all.bulk.opsMS))
	r.rawEstimators(all.inter.opsMS, one.inter.opsMS, wl.tailQ)
	r.Raw["samples_per_s"] = samples / all.wallS
	return nil
}
