package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value, as measured, with all its digits.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envInfo records where a result was measured.
type envInfo struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs_all_cores"`
}

func readEnv() envInfo {
	e := envInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: numCPU(), CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return e
}

// runResult is one run of one workload: the result file's content.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Env      envInfo `json:"env"`

	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Violations []string `json:"violations,omitempty"`

	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one.
	Metrics map[string]metric `json:"metrics"`
	// Diag holds diagnostics that are not metrics: the probe's best and
	// median reading per phase, op counts, the effective GOMAXPROCS.
	Diag map[string]float64 `json:"diag"`
	// Raw holds what the metrics would read without the probe: the same
	// statistics over wall-clock durations. NOISE.md is built from it.
	Raw        map[string]float64 `json:"raw,omitempty"`
	ColdStarts []coldStart        `json:"cold_starts,omitempty"`
}

func newRunResult(wl *workload, seed int64, seconds float64) *runResult {
	return &runResult{
		Workload: wl.name, Seed: seed, Seconds: seconds, Env: readEnv(),
		Metrics: map[string]metric{}, Diag: map[string]float64{}, Raw: map[string]float64{},
	}
}

// set records a measured value; finish gives it its unit.
func (r *runResult) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v}
}

// finish checks the measured metrics against the ones BENCHMARK.json
// lists for this pass and gives each its unit. A measured metric the
// file does not list is an error, and so is a listed end-to-end metric
// that was not measured: the driver expects every one of them. A
// per-layer metric the workload does not exercise reads 0, which for a
// time-per-op metric is also the literal truth.
func (r *runResult) finish(specs []metricSpec) error {
	listed := make(map[string]bool, len(specs))
	for _, m := range specs {
		listed[m.Name] = true
		got, ok := r.Metrics[m.Name]
		if !ok && !r.Traced {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, m.Name)
		}
		r.Metrics[m.Name] = metric{Value: got.Value, Unit: m.Unit}
	}
	for name := range r.Metrics {
		if !listed[name] {
			return fmt.Errorf("%s: metric %s is not listed in BENCHMARK.json", r.Workload, name)
		}
	}
	return nil
}

// phaseDiag records the diagnostics of the two timed phases.
func (r *runResult) phaseDiag(procs, opsAll, opsOne int, all, one phaseStats) {
	r.Diag["gomaxprocs"] = float64(procs)
	r.Diag["ops_all_cores"] = float64(opsAll)
	r.Diag["ops_one_core"] = float64(opsOne)
	r.Diag["probe_ms_best"] = min(all.probeBest, one.probeBest)
	r.Diag["probe_ms_p50_all_cores"] = all.probeP50
	r.Diag["probe_ms_p50_one_core"] = one.probeP50
}

// rawEstimators records the wall-clock counterparts of the timing
// metrics.
func (r *runResult) rawEstimators(opsAll, opsOne []float64, tailQ float64) {
	r.Raw["op_ms_p50"], _ = median(opsAll)
	r.Raw["op_ms_p50_1cpu"], _ = median(opsOne)
	r.Raw["op_ms_tail_1cpu"], _ = percentile(opsOne, tailQ)
	r.Raw["op_ms_mean"] = sum(opsAll) / float64(len(opsAll))
	var secs []float64
	for _, cs := range r.ColdStarts {
		secs = append(secs, cs.Seconds)
	}
	if len(secs) > 0 {
		r.Raw["setup_s"], _ = median(secs)
	}
}

// violate records failed output checks; each counts as one failed op.
func (r *runResult) violate(msgs ...string) {
	r.Violations = append(r.Violations, msgs...)
	r.Failed += len(msgs)
}

func (r *runResult) correct() bool { return r.Failed == 0 }

// contractLine is the last line of standard output in single-workload
// mode, the shape the benchmark driver reads.
func (r *runResult) contractLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, r.Metrics})
}

// save writes the result file under dir.
func (r *runResult) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if r.Traced {
		kind = "layers"
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%s-%s-seed%d.json", r.Workload, kind, r.Seed)), b, 0o644)
}

// printTable prints every metric by name with its unit, in
// BENCHMARK.json order.
func (r *runResult) printTable(w io.Writer, specs []metricSpec) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s · %s · seed %d ==\n", r.Workload, kind, r.Seed)
	for _, s := range specs {
		m := r.Metrics[s.Name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", s.Name, m.Value, m.Unit)
	}
	var diag []string
	for n := range r.Diag {
		diag = append(diag, n)
	}
	sort.Strings(diag)
	for _, n := range diag {
		fmt.Fprintf(w, "  (%s = %.6g)\n", n, r.Diag[n])
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", v)
	}
}
