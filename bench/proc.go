package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// childEnv marks a process as a benchmark child. The test binary looks
// for it in TestMain so that it can stand in for the benchmark binary
// when it re-executes itself.
const childEnv = "MDGAN_BENCH_CHILD"

// childTimeout bounds any one child. The longest, a timed training
// child, runs for its -seconds plus set-up and one swap cycle.
const childTimeout = 150 * time.Second

// numCPU is the GOMAXPROCS of the "all cores" runs: what a user gets by
// default, capped at 4 so that a larger host still runs the workloads
// at a size their N ≤ 8 workers can fill.
func numCPU() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// runSelf runs this binary as a child at the given GOMAXPROCS and
// decodes the one JSON line it prints into out. started is the moment
// just before exec, the origin of setup_s. The child is always reaped:
// Run waits for it, and the context kills it at the timeout or when the
// benchmark itself is told to stop.
func runSelf(ctx context.Context, self string, procs int, args []string, out any) (started time.Time, err error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, append([]string{"-child"}, args...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(procs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	started = time.Now()
	if err := cmd.Run(); err != nil {
		return started, fmt.Errorf("child %v at GOMAXPROCS=%d: %w", args, procs, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return started, fmt.Errorf("child %v at GOMAXPROCS=%d: bad result: %w", args, procs, err)
	}
	return started, nil
}

func (o childOpts) args() []string {
	args := []string{"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
	if o.minOps > 0 {
		args = append(args, "-min-ops", strconv.Itoa(o.minOps))
	}
	if o.setupOnly {
		args = append(args, "-setup-only")
	}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	return args
}

// spawnChild runs a training child.
func spawnChild(ctx context.Context, self string, o childOpts, procs int) (res childResult, started time.Time, err error) {
	started, err = runSelf(ctx, self, procs, o.args(), &res)
	return res, started, err
}

// spawnLayers runs a layers child in the given mode.
func spawnLayers(ctx context.Context, self string, o childOpts, procs int, mode string) (res layersResult, err error) {
	_, err = runSelf(ctx, self, procs, append(o.args(), "-mode", mode), &res)
	return res, err
}
