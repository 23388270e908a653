package serve

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// stats is the server's instrumentation: monotonic counters on the hot
// path (atomics, no locks around the model), a power-of-two batch-size
// histogram, and a fixed ring of recent request latencies from which
// /statusz derives percentiles.
type stats struct {
	start       time.Time
	requests    atomic.Int64
	samples     atomic.Int64
	forwards    atomic.Int64
	reloads     atomic.Int64
	reloadFails atomic.Int64
	waiting     atomic.Int64    // callers inside Sample, queued or being served
	batchHist   [8]atomic.Int64 // fused-batch sizes: 1, 2, ≤4, ≤8, ≤16, ≤32, ≤64, >64

	latMu  sync.Mutex
	lat    [4096]int64 // ns; ring of recent request latencies
	latIdx int
	latN   int
}

// histBucket maps a fused-batch size to its histogram bucket.
func histBucket(n int) int {
	b := bits.Len(uint(n - 1)) // 1→0, 2→1, 3..4→2, …, 33..64→6
	if b > 7 {
		b = 7
	}
	return b
}

// histLabel names bucket i for the JSON report.
var histLabel = [8]string{"1", "2", "<=4", "<=8", "<=16", "<=32", "<=64", ">64"}

func (st *stats) recordLatency(d time.Duration) {
	st.latMu.Lock()
	st.lat[st.latIdx] = int64(d)
	st.latIdx = (st.latIdx + 1) % len(st.lat)
	if st.latN < len(st.lat) {
		st.latN++
	}
	st.latMu.Unlock()
}

// Status is the /statusz JSON schema.
type Status struct {
	UptimeSec     float64          `json:"uptime_sec"`
	Dtype         string           `json:"dtype"`
	Replicas      int              `json:"replicas"`
	MaxBatch      int              `json:"max_batch"`
	Waiting       int64            `json:"waiting"`
	OutShape      []int            `json:"out_shape"`
	Requests      int64            `json:"requests"`
	Samples       int64            `json:"samples"`
	Forwards      int64            `json:"forwards"`
	Reloads       int64            `json:"reloads"`
	ReloadFails   int64            `json:"reload_fails"`
	SamplesPerSec float64          `json:"samples_per_sec"`
	AvgBatch      float64          `json:"avg_batch"`
	BatchHist     map[string]int64 `json:"batch_hist"`
	LatencyP50Ms  float64          `json:"latency_p50_ms"`
	LatencyP99Ms  float64          `json:"latency_p99_ms"`
	LatencyMaxMs  float64          `json:"latency_max_ms"`
}

func (st *stats) snapshot() Status {
	up := time.Since(st.start).Seconds()
	samples := st.samples.Load()
	forwards := st.forwards.Load()
	out := Status{
		UptimeSec:   up,
		Requests:    st.requests.Load(),
		Samples:     samples,
		Forwards:    forwards,
		Reloads:     st.reloads.Load(),
		ReloadFails: st.reloadFails.Load(),
		Waiting:     st.waiting.Load(),
		BatchHist:   map[string]int64{},
	}
	if up > 0 {
		out.SamplesPerSec = float64(samples) / up
	}
	if forwards > 0 {
		out.AvgBatch = float64(samples) / float64(forwards)
	}
	for i := range st.batchHist {
		if v := st.batchHist[i].Load(); v > 0 {
			out.BatchHist[histLabel[i]] = v
		}
	}
	p50, p99, max := st.latencyPercentiles()
	out.LatencyP50Ms = float64(p50) / 1e6
	out.LatencyP99Ms = float64(p99) / 1e6
	out.LatencyMaxMs = float64(max) / 1e6
	return out
}

// latencyPercentiles sorts a snapshot of the latency ring. ~4096 int64s
// per /statusz hit — far off the sampling hot path.
func (st *stats) latencyPercentiles() (p50, p99, max int64) {
	st.latMu.Lock()
	snap := append([]int64(nil), st.lat[:st.latN]...)
	st.latMu.Unlock()
	if len(snap) == 0 {
		return 0, 0, 0
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	return snap[len(snap)/2], snap[len(snap)*99/100], snap[len(snap)-1]
}
