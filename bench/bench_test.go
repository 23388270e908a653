package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"mdgan/internal/gan"
	"mdgan/internal/nn"
)

// The tests run a miniature of every workload: the same children, the
// same checks and the same code paths as a real run, for a fraction of
// a second each.

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		// Re-executed by the harness: this process is a child.
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	// The harness builds ./cmd/mdgan-serve and writes under bench/out:
	// it runs from the repository root.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var ctx = context.Background()

func self(t *testing.T) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

func TestTrainingMiniature(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		if wl.serve {
			continue
		}
		t.Run(wl.name, func(t *testing.T) {
			if raceEnabled && wl.name != "ring-tiny-n8" {
				t.Skip("model-sized ops take about a second each under the race detector")
			}
			t.Parallel()
			// A miniature cannot afford the hundred ops the real tail
			// percentile needs: it reports the median as its "tail".
			mini := *wl
			mini.tailQ = 0.5
			o := childOpts{workload: wl.name, seed: 3, seconds: 0.05, minOps: opsForTail(mini.tailQ)}
			all, _, err := spawnChild(ctx, self(t), o, numCPU())
			if err != nil {
				t.Fatal(err)
			}
			o.trace = true
			one, started, err := spawnChild(ctx, self(t), o, 1)
			if err != nil {
				t.Fatal(err)
			}
			r := newRunResult(wl, o.seed, o.seconds)
			r.ColdStarts = []coldStart{one.coldStart(started.UnixNano())}
			if err := r.trainMetrics(&mini, &all, &one); err != nil {
				t.Fatal(err)
			}
			if !r.correct() {
				t.Fatalf("output checks failed: %v", r.Violations)
			}
			for _, c := range []*childResult{&all, &one} {
				if n := len(c.OpsNS); n == 0 || n%c.SwapInterval != 0 {
					t.Errorf("GOMAXPROCS=%d: %d timed ops, want whole swap cycles of %d", c.Procs, n, c.SwapInterval)
				}
			}
			for _, name := range []string{"setup_s", "op_ms_p50", "op_ms_p50_1cpu", "op_ms_tail_1cpu", "samples_per_s", "wire_bytes_per_op", "peak_rss_mb"} {
				if !(r.Metrics[name].Value > 0) {
					t.Errorf("%s = %v", name, r.Metrics[name].Value)
				}
			}
			m := map[string]float64{}
			engineMetrics(m, one.Spans)
			for _, name := range []string{"simnet.send_us_p50", "core.worker_latency_ms_p50", "core.server_ms"} {
				if !(m[name] > 0) {
					t.Errorf("%s = %v from %d spans", name, m[name], len(one.Spans))
				}
			}

			o = childOpts{workload: wl.name, seed: 3, seconds: 0.2}
			layers, err := spawnLayers(ctx, self(t), o, 1, "layers")
			if err != nil {
				t.Fatal(err)
			}
			rows, total := layerTable(layers.Spans, layers.Scale)
			sum := 0.0
			for _, v := range rows {
				sum += v
			}
			if d := relDiff(total, sum); d > 0.05 || d < -0.05 {
				t.Errorf("layer table sums to %.4f ms, the replayed op is %.4f ms", sum, total)
			}
			if !(layers.Metrics["gan.disc_step_ms"] > 0) || !(layers.Metrics["opt.adam_step_ms"] > 0) {
				t.Errorf("replay rows missing: %v", layers.Metrics)
			}
		})
	}
}

func TestSetupOnlyChildStopsAfterWarmup(t *testing.T) {
	o := childOpts{workload: "ring-tiny-n8", seed: 1, seconds: 60, setupOnly: true}
	res, started, err := spawnChild(ctx, self(t), o, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OpsNS) != 0 || res.WarmupEndNS <= started.UnixNano() {
		t.Errorf("setup-only child: %d timed ops, warm-up ended %d ns after exec", len(res.OpsNS), res.WarmupEndNS-started.UnixNano())
	}
}

// TestDecoratorsSurviveClone: the engine clones the discriminator once
// per worker; a clone that lost its decoration would drop out of the
// layer table without a trace.
func TestDecoratorsSurviveClone(t *testing.T) {
	tr := newTracer()
	for _, arch := range []gan.Arch{gan.PaperMLP(), gan.ScaledCNN(3, 32, 10), gan.RingMLP()} {
		couple := instrument(arch, tr).NewGAN(1, 0, 1)
		for _, s := range []*nn.Sequential{couple.G.Clone().Net, couple.D.Clone().Trunk} {
			for _, l := range s.Layers {
				_, timed := l.(*timedLayer)
				if want := layerKind(unwrap(l)) != ""; timed != want {
					t.Errorf("%s: cloned layer %T decorated = %v, want %v", arch.Name, l, timed, want)
				}
			}
		}
	}
}

func unwrap(l nn.Layer) nn.Layer {
	if t, ok := l.(*timedLayer); ok {
		return t.Layer
	}
	return l
}

func TestCrossChildChecksFail(t *testing.T) {
	ring, _ := findWorkload("ring-tiny-n8")
	mini := *ring
	mini.tailQ = 0.5
	wl := &mini
	mk := func(sum string, bytes int64) *childResult {
		c := &childResult{Procs: 1, SwapInterval: 2, Probes: []reading{{At: 0, MS: 1.0}, {At: 20, MS: 1.1}},
			Checksum: sum, Bytes: [3]int64{bytes, 0, 0}, Msgs: [3]int64{20, 0, 0}}
		for i := 0; i < 20; i++ {
			c.OpsNS = append(c.OpsNS, 1e6)
		}
		return c
	}
	bad := mk("a", 40)
	bad.Violations = []string{"non-finite generator parameter in dense.W"}
	for _, c := range []struct {
		name     string
		all, one *childResult
		want     string
	}{
		{"checksum", mk("a", 40), mk("b", 40), "checksum"},
		{"missing checksum", mk("", 40), mk("", 40), "checksum"},
		{"wire bytes", mk("a", 40), mk("a", 44), "wire bytes"},
		{"child violation", bad, mk("a", 40), "non-finite"},
	} {
		r := newRunResult(wl, 1, 1)
		if err := r.trainMetrics(wl, c.all, c.one); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r.correct() || r.Failed == 0 || !strings.Contains(strings.Join(r.Violations, "\n"), c.want) {
			t.Errorf("%s: failed=%d violations=%v", c.name, r.Failed, r.Violations)
		}
		line, _ := r.contractLine()
		if !bytes.Contains(line, []byte(`"correct":false`)) {
			t.Errorf("%s: result line %s", c.name, line)
		}
	}
}

// TestResultLine runs the benchmark's own command line for the tiny
// and the serving workload, both passes, and checks the last line
// against BENCHMARK.json: every metric of the pass, nothing else.
func TestResultLine(t *testing.T) {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"ring-tiny-n8", "serve-http-mix"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				if raceEnabled && wl == "ring-tiny-n8" && trace == "0" {
					t.Skip("seven cold starts of 310 warm-up ops take over a minute under the race detector; the serving workload covers the result line, the miniature the training path")
				}
				t.Parallel()
				var out, errOut bytes.Buffer
				code := realMain([]string{"-workload", wl, "-seed", "5", "-seconds", "1", "-trace", trace}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   *bool             `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if res.Correct == nil || !*res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if trace == "0" && !(got.Value > 0) {
						t.Errorf("end-to-end metric %s = %v: must never be 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestSpecMatchesCode: the workloads the code knows are exactly the
// ones BENCHMARK.json lists, with the same reasons. (The metric lists
// are checked by every run: see runResult.finish.)
func TestSpecMatchesCode(t *testing.T) {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v", m.Name, m.Bound)
		}
	}
}

func TestServerIsReapedOnEveryPath(t *testing.T) {
	bin, err := buildServer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := startServer(ctx, bin, "bench/out/no-such.ckpt", 1, 1); err == nil {
		s.stop()
		t.Fatal("daemon started without a checkpoint")
	}
	ckpt, err := writeCheckpoint(9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := startServer(ctx, bin, ckpt, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bad := warm(s); len(bad) != 0 {
		t.Errorf("warm-up requests failed: %v", bad)
	}
	if rss := vmHWMKB(strconv.Itoa(s.cmd.Process.Pid)); rss <= 0 {
		t.Errorf("peak RSS %d KB", rss)
	}
	s.stop()
	s.stop() // idempotent
	if s.cmd.ProcessState == nil {
		t.Error("daemon not reaped after stop")
	}
}
