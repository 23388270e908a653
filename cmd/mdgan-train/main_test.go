package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"log"
	"os"
	"strings"
	"testing"
)

// wantDefaults is every flag's name, default and usage as `-h` prints
// them. A flag's help text is the CLI's contract: a rebinding (say, a
// flag moving from an Options field to a variable of its own) must not
// change a byte of it.
const wantDefaults = `  -L int
    	discriminator steps per iteration (default 1)
  -algo string
    	algorithm: standalone | fl-gan | md-gan (default "md-gan")
  -async
    	MD-GAN asynchronous mode (§VII.1)
  -batch int
    	batch size b (default 10)
  -chaos float
    	fault-injection intensity p in [0,1): drop=p, delay=2p, duplicate=p, corrupt=p/2 on worker→server frames (implies -round-timeout 250ms unless set)
  -chaos-seed int
    	seed for the chaos fault stream (default 1)
  -ckpt-out string
    	write a generator checkpoint here
  -compress string
    	feedback compression: none | fp32 | topk (default "none")
  -dataset string
    	dataset: digits | cifar | faces | ring (default "digits")
  -defense
    	enable the server-side feedback-quality defense (down-weights, then demotes, free-riders)
  -eval int
    	metric cadence in iterations (0 disables) (default 100)
  -fanin int
    	tree topology per-node child bound (0 = auto ceil(N^(1/depth)))
  -free-riders string
    	free-riding workers: N[:variant] (first N workers) or i=variant,... with variant random | replay | noise
  -iters int
    	generator iterations I (default 1000)
  -join-warmup int
    	ramp a dynamic joiner's aggregation weight over its first N rounds (0 = full weight at once)
  -k int
    	MD-GAN batches per iteration (0 = ⌊ln N⌋)
  -lifetimes string
    	temporary-discriminator windows: i=join:retire,... (join 0 = from start, retire 0 = never)
  -lrd float
    	discriminator Adam learning rate (default 0.004)
  -lrg float
    	generator Adam learning rate (default 0.001)
  -paperloss
    	use the paper's log(1−D) generator objective
  -pipeline
    	MD-GAN pipelined synchronous engine: overlap next-round generation with worker compute (one-iteration parameter staleness)
  -quorum int
    	minimum feedbacks to apply a round after the deadline (0 = 1)
  -round-timeout duration
    	MD-GAN round deadline: suspect missing workers and apply the round with a quorum (0 waits forever)
  -samples int
    	training samples to generate (default 4000)
  -samples-out string
    	write a PNG grid of generated samples here
  -seed int
    	random seed (default 1)
  -skew float
    	non-IID label skew in [0,1] (0 = i.i.d.)
  -suspect-after int
    	consecutive misses before a suspect is demoted (0 = default, <0 = never)
  -swap int
    	epochs between discriminator swaps (-1 disables) (default 1)
  -swap-native
    	ship discriminator swaps at the compiled element width instead of the default 4-byte FP32 wire frames
  -swap-schedule string
    	discriminator swap plan: ring (default) | shuffle | gossip[:pairs]
  -tcp
    	run workers over loopback TCP sockets
  -topology string
    	MD-GAN feedback aggregation overlay: flat (default) | tree:<depth> — tree reduces feedbacks through worker-side aggregators, bounding server ingress by its fan-in
  -workers int
    	number of workers N (default 10)
`

// stderrOf runs f with os.Stderr redirected and returns what f wrote
// there (the flag package prints usage to os.Stderr by default).
func stderrOf(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = saved }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestHelpIsUnchanged(t *testing.T) {
	var err error
	got := stderrOf(t, func() { err = run([]string{"-h"}, io.Discard) })
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	if want := "Usage of mdgan-train:\n" + wantDefaults; got != want {
		t.Fatalf("-h output changed:\n%s\nwant:\n%s", got, want)
	}
}

// Settings that a run would silently ignore are errors, reported before
// any data is built or trained on.
func TestRejectsIgnoredSettings(t *testing.T) {
	quick := []string{"-dataset", "ring", "-samples", "64", "-workers", "2", "-iters", "1", "-eval", "0"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fanin", "3"}, "fan-in 3 given without a tree topology"},
		{[]string{"-algo", "fl-gan", "-chaos", "0.1"}, "MD-GAN only"},
		{[]string{"-swap-schedule", "gossip:0"}, "bad gossip pair count"},
	} {
		var out bytes.Buffer
		err := run(append(tc.args, quick...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q before failing", tc.args, out.String())
		}
	}
}

// TestUnknownFlagIsOneUsageError: an unknown flag is reported once — by
// the flag package, with the usage — and exits 2, the flag package's
// status for a usage error; main used to log the parse error a second
// time and exit 1.
func TestUnknownFlagIsOneUsageError(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	code := -1
	got := stderrOf(t, func() { code = report(run([]string{"-nope"}, io.Discard)) }) + logged.String()
	if n := strings.Count(got, "flag provided but not defined: -nope"); code != 2 || n != 1 {
		t.Fatalf("-nope: exit %d, error printed %d times, want exit 2 and once:\n%s", code, n, got)
	}
	if !strings.Contains(got, "Usage of mdgan-train:") {
		t.Fatalf("-nope: no usage printed:\n%s", got)
	}
	if code := report(errors.New("boom")); code != 1 || !strings.Contains(logged.String(), "boom") {
		t.Fatalf("a run error: exit %d, logged %q; want exit 1 and the error logged", code, logged.String())
	}
}
