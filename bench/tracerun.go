package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run produces the per-layer metrics. Its end-to-end figures
// (needed for the ratios core.self_share, core.parallel_speedup and
// trace.overhead_share) come from short untraced children of its own;
// the end-to-end metrics BENCHMARK.json bounds are never taken here.

// setAll copies measured per-layer values into the result.
func (r *runResult) setAll(values map[string]float64) {
	for name, v := range values {
		r.set(name, v)
	}
}

// Shares of a traced run's -seconds. The rest is the children's set-up.
const (
	tracedOneCore  = 0.20 // untraced, one core
	tracedAllCores = 0.12 // untraced, all cores
	tracedEngine   = 0.12 // traced engine run, one core
	tracedLayers   = 0.30 // layers child: micro-measurements and replay
	tracedFanout   = 0.03
	// tracedServePhase is each of the serving workload's two phases, one
	// untraced and one with a span per request.
	tracedServePhase = 0.25
)

// trainLayers is the traced run of a training workload.
func trainLayers(ctx context.Context, self string, wl *workload, seed int64, seconds float64) (*runResult, error) {
	r := newRunResult(wl, seed, seconds)
	o := childOpts{workload: wl.name, seed: seed}

	o.seconds = tracedOneCore * seconds
	plain, _, err := spawnChild(ctx, self, o, 1)
	if err != nil {
		return nil, err
	}
	o.seconds, o.trace = tracedEngine*seconds, true
	traced, _, err := spawnChild(ctx, self, o, 1)
	if err != nil {
		return nil, err
	}
	o.seconds, o.trace = tracedAllCores*seconds, false
	all, _, err := spawnChild(ctx, self, o, numCPU())
	if err != nil {
		return nil, err
	}
	o.seconds = tracedLayers * seconds
	layers, err := spawnLayers(ctx, self, o, 1, "layers")
	if err != nil {
		return nil, err
	}
	o.seconds = tracedFanout * seconds
	fan, err := spawnLayers(ctx, self, o, numCPU(), "fanout")
	if err != nil {
		return nil, err
	}

	r.Attempted = len(plain.OpsNS) + len(traced.OpsNS) + len(all.OpsNS)
	r.violate(plain.Violations...)
	r.violate(traced.Violations...)
	r.violate(all.Violations...)

	m := layers.Metrics
	for k, v := range fan.Metrics {
		m[k] = v
	}
	m["replay.op_ms"] = layers.ReplayOpMS

	p50 := func(c *childResult) (float64, error) {
		s, err := stats(nsToMS(c.OpsNS), c.Probes, 0)
		return s.p50, err
	}
	one, err := p50(&plain)
	if err != nil {
		return nil, err
	}
	onTrace, err := p50(&traced)
	if err != nil {
		return nil, err
	}
	allP50, err := p50(&all)
	if err != nil {
		return nil, err
	}
	r.Diag["op_ms_p50_1cpu"] = one
	r.Diag["op_ms_p50"] = allP50
	r.Diag["op_ms_p50_1cpu_traced"] = onTrace
	r.Diag["probe_ms_best"], _ = probeSummary(append(append(plain.Probes, traced.Probes...), all.Probes...))
	m["trace.overhead_share"] = onTrace/one - 1
	m["core.parallel_speedup"] = one / allP50
	m["core.self_ms"] = one - m["replay.plain_op_ms"]
	m["core.self_share"] = m["core.self_ms"] / one

	ops := float64(len(plain.OpsNS))
	m["runtime.allocs_per_op"] = float64(plain.Mallocs) / ops
	m["runtime.alloc_kb_per_op"] = float64(plain.AllocKB) / ops
	m["runtime.gc_cycles_per_op"] = float64(plain.GCCycles) / ops
	m["core.swap_extra_ms"] = swapExtra(&plain)

	tops := float64(len(traced.OpsNS))
	m["simnet.msgs_per_op"] = float64(traced.Msgs[0]+traced.Msgs[1]+traced.Msgs[2]) / tops
	m["simnet.bytes_per_op.c2w"] = float64(traced.Bytes[0]) / tops
	m["simnet.bytes_per_op.w2c"] = float64(traced.Bytes[1]) / tops
	m["simnet.bytes_per_op.w2w"] = float64(traced.Bytes[2]) / tops
	if a, b := m["simnet.msgs_per_op"], float64(plain.Msgs[0]+plain.Msgs[1]+plain.Msgs[2])/ops; a != b {
		r.violate(fmt.Sprintf("messages per op differ between the traced and the untraced child: %v vs %v", a, b))
	}
	engineMetrics(m, traced.Spans)

	r.setAll(m)
	return r, writeTrace(wl.name, map[string][]span{"engine": traced.Spans, "replay": layers.Spans})
}

// swapExtra is the median swap op minus the median other op. Timed op i
// (0-based) is engine iteration warm+i+1, and the engine swaps on the
// iterations that are multiples of the swap interval.
func swapExtra(c *childResult) float64 {
	var swap, rest []float64
	for i, ns := range c.OpsNS {
		if (c.WarmupOps+i+1)%c.SwapInterval == 0 {
			swap = append(swap, float64(ns)/1e6)
		} else {
			rest = append(rest, float64(ns)/1e6)
		}
	}
	s, err1 := median(swap)
	o, err2 := median(rest)
	if err1 != nil || err2 != nil {
		return 0
	}
	return s - o
}

// engineMetrics derives the simnet and core timing metrics from the
// traced engine run's message spans. Per op and worker, the worker's
// latency runs from the end of the server's batches send to the start
// of the worker's feedback send.
func engineMetrics(m map[string]float64, spans []span) {
	var sendUS, latency, skew, server []float64
	for i := 0; i < len(spans); {
		root := spans[i]
		j := i + 1
		for j < len(spans) && spans[j].Parent == i {
			j++
		}
		msgs := spans[i+1 : j]
		i = j
		if len(msgs) == 0 {
			continue // beyond the span cap: only the root was kept
		}
		sent := map[string]int64{}
		var perWorker []float64
		first, last := int64(-1), int64(-1)
		for _, s := range msgs {
			sendUS = append(sendUS, s.ms()*1e3)
			switch s.Kind {
			case "c2w":
				sent[s.To] = s.EndNS
				if first < 0 || s.StartNS < first {
					first = s.StartNS
				}
			case "w2c":
				if t0, ok := sent[s.From]; ok {
					perWorker = append(perWorker, float64(s.StartNS-t0)/1e6)
				}
				if s.EndNS > last {
					last = s.EndNS
				}
			}
		}
		if len(perWorker) == 0 || first < 0 || last < 0 {
			continue
		}
		latency = append(latency, perWorker...)
		sort.Float64s(perWorker)
		med, _ := median(perWorker)
		skew = append(skew, perWorker[len(perWorker)-1]-med)
		server = append(server, root.ms()-float64(last-first)/1e6)
	}
	m["simnet.send_us_p50"], _ = median(sendUS)
	m["core.worker_latency_ms_p50"], _ = median(latency)
	m["core.straggler_skew_ms"], _ = median(skew)
	m["core.server_ms"], _ = median(server)
}

// writeTrace writes the run's spans to bench/out/trace-<workload>.json.
func writeTrace(workload string, spans map[string][]span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), b, 0o644)
}

// serveLayers is the traced run of the serving workload: an untraced
// and a traced phase against the daemon on all cores, and the layers
// child for the in-process figures.
func serveLayers(ctx context.Context, self string, wl *workload, seed int64, seconds float64) (*runResult, error) {
	r := newRunResult(wl, seed, seconds)
	bin, err := buildServer(ctx)
	if err != nil {
		return nil, err
	}
	ckpt, err := writeCheckpoint(seed)
	if err != nil {
		return nil, err
	}
	phase := func(trace bool) (*servePhase, error) {
		s, err := startServer(ctx, bin, ckpt, seed, numCPU())
		if err != nil {
			return nil, err
		}
		defer s.stop()
		r.violate(warm(s)...)
		return runPhase(ctx, s, tracedServePhase*seconds, numCPU(), 0, trace)
	}
	plain, err := phase(false)
	if err != nil {
		return nil, err
	}
	traced, err := phase(true)
	if err != nil {
		return nil, err
	}
	layers, err := spawnLayers(ctx, self, childOpts{workload: wl.name, seed: seed, seconds: tracedLayers * seconds}, 1, "layers")
	if err != nil {
		return nil, err
	}
	r.count(plain)
	r.count(traced)

	m := layers.Metrics
	m["replay.op_ms"] = layers.ReplayOpMS
	sPlain, err := stats(plain.inter.opsMS, plain.probes, 0)
	if err != nil {
		return nil, err
	}
	sTraced, err := stats(traced.inter.opsMS, traced.probes, 0)
	if err != nil {
		return nil, err
	}
	p50 := sPlain.p50
	r.Diag["op_ms_p50"] = p50
	r.Diag["op_ms_p50_traced"] = sTraced.p50
	r.Diag["probe_ms_best"] = min(sPlain.probeBest, sTraced.probeBest)
	m["trace.overhead_share"] = sTraced.p50/p50 - 1
	// The bulk stream's probe bracket is the interactive stream's: both
	// ran side by side, so one scale serves.
	bulk, err := median(plain.bulk.opsMS)
	if err != nil {
		return nil, err
	}
	rawP50, _ := median(plain.inter.opsMS)
	m["serve.bulk_ms_p50"] = bulk * p50 / rawP50
	// A bulk request fills the batch by itself, so its in-process time
	// has no window in it: what HTTP adds on top is transport, codec
	// and the interactive stream's share of the daemon.
	m["serve.http_overhead_ms"] = m["serve.bulk_ms_p50"] - m["serve.sample_ms_p50.n64"]
	m["serve.avg_batch"] = plain.status.AvgBatch
	r.setAll(m)
	return r, writeTrace(wl.name, map[string][]span{"http": traced.spans(), "replay": layers.Spans})
}

// spans merges the two streams' request spans of a traced phase.
func (ph *servePhase) spans() []span {
	all := append(append([]span(nil), ph.inter.spans...), ph.bulk.spans...)
	sort.Slice(all, func(a, b int) bool { return all[a].StartNS < all[b].StartNS })
	for i := range all {
		all[i].Op = i
	}
	return all
}

// requestSpan records one HTTP request of a traced phase.
func (st *stream) requestSpan(t0 time.Time, ms float64) {
	start := int64(t0.Sub(st.epoch))
	st.spans = append(st.spans, span{
		Name: fmt.Sprintf("http.sample/n=%d", st.n), Parent: -1,
		StartNS: start, EndNS: start + int64(ms*1e6), Bytes: st.buf.Len(),
	})
}
