package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mdgan/internal/core"
	"mdgan/internal/gan"
	"mdgan/internal/simnet"
)

// The training child is one fresh process running one MD-GAN training
// run. It times every op through the engine's per-iteration hook
// (core.EvalFunc with EvalEvery = 1, called on the server goroutine
// after the generator's Adam step, while every worker waits for its
// next batches), reads the probe from inside that hook between ops, and
// prints one childResult line on standard output.
//
// Timing is boxed by -seconds rather than by an op count so that the
// benchmark's wall time is the same on a quiet and on a contended host:
// the run asks the engine for more iterations than it can finish and,
// at the first swap-cycle boundary past the deadline, the hook hands
// the result to main and parks the server goroutine for good; main
// prints and exits the process. The timed ops are therefore always a
// whole number of swap cycles, which keeps the share of swap ops, and
// with it wire_bytes_per_op and simnet.msgs_per_op, exact.

// checksumOp is the timed op after which the generator's parameters are
// checksummed (sooner when a miniature run guarantees fewer ops). The
// strict engine promises bitwise-identical parameters at every
// GOMAXPROCS; the driver compares the two children's checksums.
const checksumOp = 100

type childResult struct {
	Procs        int `json:"procs"`
	SwapInterval int `json:"swap_interval"`
	WarmupOps    int `json:"warmup_ops"`
	// StartProbeMS is the probe reading taken first thing in the child;
	// with Probes[0], taken at the end of warm-up, it brackets set-up.
	StartProbeMS float64 `json:"start_probe_ms"`
	WarmupEndNS  int64   `json:"warmup_end_unix_ns"`
	OpsNS        []int64 `json:"ops_ns"`
	// SwapOps counts timed ops during which worker-to-worker bytes moved.
	SwapOps  int       `json:"swap_ops"`
	Probes   []reading `json:"probes"`
	Checksum string    `json:"checksum"`
	// Bytes and Msgs are the timed phase's traffic by link kind, indexed
	// by simnet.Kind (C→W, W→C, W→W).
	Bytes [3]int64 `json:"bytes"`
	Msgs  [3]int64 `json:"msgs"`
	// VmHWMKB is the process's peak resident set at the end of the run.
	VmHWMKB  int64  `json:"vm_hwm_kb"`
	Mallocs  uint64 `json:"mallocs"`
	AllocKB  uint64 `json:"alloc_kb"`
	GCCycles uint32 `json:"gc_cycles"`
	// Violations lists failed output checks; empty on a correct run.
	Violations []string `json:"violations,omitempty"`
	Spans      []span   `json:"spans,omitempty"`
}

type childOpts struct {
	workload string
	seed     int64
	seconds  float64
	// minOps is the least number of timed ops, whatever -seconds says:
	// what the workload's tail percentile needs for its support.
	minOps    int
	setupOnly bool // exit at the end of warm-up
	trace     bool // record a span per op and per message
}

func runChild(o childOpts) error {
	procs := runtime.GOMAXPROCS(0)
	readProbe(procs) // the first pass pays the page faults of a new process
	res := childResult{Procs: procs, StartProbeMS: readProbe(procs)}
	wl, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if wl.serve {
		return fmt.Errorf("workload %s has no training child", wl.name)
	}
	shards := wl.shards(o.seed)
	swap := wl.swapInterval(shards)
	warm := wl.warmOps
	res.SwapInterval, res.WarmupOps = swap, warm
	checksumAt := min(checksumOp, max(o.minOps, 1))

	var net simnet.Net = simnet.NewChannelNet(0)
	var tn *traceNet
	if o.trace {
		tn = newTraceNet(net)
		net = tn
	}

	done := make(chan struct{})
	var (
		lastExit   time.Time // when the hook last returned: the next op's start
		timedStart time.Time
		lastProbe  time.Time
		base       simnet.Traffic
		baseMem    runtime.MemStats
		lastW2W    int64
		nextIter   = 1
	)
	finish := func(g *gan.Generator) {
		end := net.Snapshot()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		for k := range res.Bytes {
			res.Bytes[k] = end.Bytes[simnet.Kind(k)] - base.Bytes[simnet.Kind(k)]
			res.Msgs[k] = end.Msgs[simnet.Kind(k)] - base.Msgs[simnet.Kind(k)]
		}
		res.Mallocs = mem.Mallocs - baseMem.Mallocs
		res.AllocKB = (mem.TotalAlloc - baseMem.TotalAlloc) / 1024
		res.GCCycles = mem.NumGC - baseMem.NumGC
		res.Violations = append(res.Violations, checkGenerator(g, wl, o.seed)...)
		if cycles := len(res.OpsNS) / swap; res.SwapOps != cycles {
			res.Violations = append(res.Violations,
				fmt.Sprintf("%d swap ops in %d cycles of %d ops: swap interval is not what the benchmark assumes", res.SwapOps, cycles, swap))
		}
		if tn != nil {
			res.Spans = tn.spans()
		}
		close(done)
		select {} // park the server goroutine; main exits the process
	}
	hook := func(it int, g *gan.Generator) {
		now := time.Now()
		if it != nextIter {
			res.Violations = append(res.Violations, fmt.Sprintf("hook saw op %d, expected %d", it, nextIter))
		}
		nextIter = it + 1
		switch {
		case it < warm:
		case it == warm:
			res.WarmupEndNS = now.UnixNano()
			res.Probes = append(res.Probes, reading{At: 0, MS: readProbe(procs)})
			if o.setupOnly {
				close(done)
				select {}
			}
			if tn != nil {
				tn.discard()
			}
			base = net.Snapshot()
			lastW2W = base.Bytes[simnet.WtoW]
			runtime.ReadMemStats(&baseMem)
			timedStart = time.Now()
			lastProbe = timedStart
		default:
			res.OpsNS = append(res.OpsNS, int64(now.Sub(lastExit)))
			n := len(res.OpsNS)
			if tn != nil {
				tn.endOp(n, lastExit, now)
			}
			if w2w := net.Snapshot().Bytes[simnet.WtoW]; w2w != lastW2W {
				lastW2W = w2w
				res.SwapOps++
			}
			if n == checksumAt {
				res.Checksum = paramChecksum(g)
			}
			last := now.Sub(timedStart).Seconds() >= o.seconds && n%swap == 0 && n >= o.minOps
			if last || now.Sub(lastProbe) >= probeEvery {
				res.Probes = append(res.Probes, reading{At: n, MS: readProbe(procs)})
				lastProbe = time.Now()
			}
			if last {
				finish(g)
			}
		}
		lastExit = time.Now()
	}

	cfg := core.Config{Net: net}
	cfg.Batch = wl.batch
	cfg.Seed = o.seed
	cfg.EvalEvery = 1
	cfg.Iters = math.MaxInt32
	trainErr := make(chan error, 1)
	go func() {
		_, err := core.Train(shards, wl.arch(), cfg, hook)
		if err == nil {
			err = fmt.Errorf("training returned before the deadline")
		}
		trainErr <- err
	}()
	select {
	case err := <-trainErr:
		return err
	case <-done:
	}
	res.VmHWMKB = vmHWMKB("self")
	return json.NewEncoder(os.Stdout).Encode(&res)
}

// paramChecksum hashes the bit patterns of every generator parameter.
func paramChecksum(g *gan.Generator) string {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range g.Params() {
		for _, v := range p.W.Data {
			bits := math.Float64bits(float64(v))
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// checkGenerator verifies what a user of the trained generator relies
// on: finite parameters, and finite samples inside the output range.
func checkGenerator(g *gan.Generator, wl *workload, seed int64) []string {
	var bad []string
	for _, p := range g.Params() {
		for _, v := range p.W.Data {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				bad = append(bad, "non-finite generator parameter in "+p.Name)
				break
			}
		}
	}
	x, _ := g.Generate(wl.batch, rand.New(rand.NewSource(seed)), false)
	for _, v := range x.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) || (wl.imageRange && (f < -1 || f > 1)) {
			bad = append(bad, fmt.Sprintf("generated sample value %v outside the output range", f))
			break
		}
	}
	return bad
}

// vmHWMKB reads a process's peak resident set size from /proc; pid is a
// process id or "self".
func vmHWMKB(pid string) int64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}
