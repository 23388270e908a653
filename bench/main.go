// Command bench is the repository's benchmark (BENCHMARK.json): four
// workloads, each run in fresh child processes, reporting the
// end-to-end metrics a user of MD-GAN training or of the serving daemon
// sees and, in a separate traced run, the per-layer metrics that
// explain them. See README.md in this directory.
//
//	go run ./bench                                  # every workload, both passes
//	go run ./bench -workload mnist-mlp-n4 -trace 0  # one workload, end-to-end
//	go run ./bench -workload mnist-mlp-n4 -trace 1  # one workload, per-layer
//	go run ./bench -selfcheck                       # two run-sets, compared
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// outDir receives result files and traces; bench/.gitignore keeps it
// out of the tree.
const outDir = "bench/out"

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run one workload and end with the result line (default: every workload)")
		seed      = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = fs.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		trace     = fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run (default: both)")
		selfcheck = fs.Bool("selfcheck", false, "run two back-to-back run-sets and fail if any end-to-end metric moves by more than its bound")

		child     = fs.Bool("child", false, "internal: run as a training child")
		minOps    = fs.Int("min-ops", 0, "internal: least number of timed ops of a child")
		setupOnly = fs.Bool("setup-only", false, "internal: child exits at the end of warm-up")
		mode      = fs.String("mode", "", "internal: child mode (layers, fanout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *child {
		o := childOpts{workload: *name, seed: *seed, seconds: *seconds,
			minOps: *minOps, setupOnly: *setupOnly, trace: *trace == 1}
		var err error
		switch *mode {
		case "":
			err = runChild(o)
		default:
			err = runLayersChild(o, *mode)
		}
		if err != nil {
			return fail(err)
		}
		return 0
	}

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return fail(fmt.Errorf("run from the repository root: %w", err))
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fail(fmt.Errorf("run from the repository root: %w", err))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	b := &bench{self: self, spec: spec, seconds: *seconds, stdout: stdout, stderr: stderr}
	// An interrupted benchmark takes its children with it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *selfcheck:
		return b.selfcheck(ctx, *seed)
	case *name == "":
		return b.runAll(ctx, *seed, *trace)
	}
	wl, err := findWorkload(*name)
	if err != nil {
		return fail(err)
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-workload needs -trace 0 or -trace 1"))
	}
	r, err := b.run(ctx, wl, *seed, *trace == 1)
	if err != nil {
		return fail(err)
	}
	r.printTable(stdout, b.specs(r.Traced))
	line, err := r.contractLine()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type bench struct {
	self           string
	spec           *benchSpec
	seconds        float64
	stdout, stderr io.Writer
}

// specs lists the metrics of one pass in BENCHMARK.json order.
func (b *bench) specs(traced bool) []metricSpec {
	if traced {
		return b.spec.PerLayer
	}
	return b.spec.EndToEnd
}

// run measures one workload once and writes its result file.
func (b *bench) run(ctx context.Context, wl *workload, seed int64, traced bool) (*runResult, error) {
	var r *runResult
	var err error
	switch {
	case wl.serve && traced:
		r, err = serveLayers(ctx, b.self, wl, seed, b.seconds)
	case wl.serve:
		r, err = serveEndToEnd(ctx, wl, seed, b.seconds)
	case traced:
		r, err = trainLayers(ctx, b.self, wl, seed, b.seconds)
	default:
		r, err = trainEndToEnd(ctx, b.self, wl, seed, b.seconds)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	r.Traced = traced
	if err := r.finish(b.specs(traced)); err != nil {
		return nil, err
	}
	if err := r.save(outDir); err != nil {
		return nil, err
	}
	return r, nil
}

// runAll runs every workload: the end-to-end pass, then the traced
// pass, printing each table. It exits non-zero when a check fails.
func (b *bench) runAll(ctx context.Context, seed int64, trace int) int {
	code := 0
	for _, traced := range []bool{false, true} {
		if (trace == 0 && traced) || (trace == 1 && !traced) {
			continue
		}
		for i := range workloads {
			r, err := b.run(ctx, &workloads[i], seed, traced)
			if err != nil {
				fmt.Fprintln(b.stderr, "bench:", err)
				code = 1
				continue
			}
			r.printTable(b.stdout, b.specs(traced))
			if !r.correct() {
				code = 1
			}
		}
	}
	fmt.Fprintf(b.stdout, "result files and traces: %s\n", outDir)
	return code
}
