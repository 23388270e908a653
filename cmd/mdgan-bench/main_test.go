package main

import (
	"bytes"
	"errors"
	"io"
	"log"
	"os"
	"strings"
	"testing"
)

// runOut runs the driver with args and returns what it printed.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%q): %v", args, err)
	}
	return out.String()
}

// TestFig2OutputIsDeterministic pins the panel order: the two panels
// used to come out of a map range, so their order flipped between runs.
func TestFig2OutputIsDeterministic(t *testing.T) {
	first := runOut(t, "-only", "fig2")
	mnist := strings.Index(first, "Figure 2 (mnist)")
	cifar := strings.Index(first, "Figure 2 (cifar)")
	if mnist < 0 || cifar < 0 || mnist > cifar {
		t.Fatalf("want the mnist panel, then the cifar panel; got:\n%s", first)
	}
	for i := 1; i < 10; i++ {
		if got := runOut(t, "-only", "fig2"); got != first {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestAnalyticTables(t *testing.T) {
	for only, title := range map[string]string{
		"table2": "== Table II (",
		"table3": "== Table III:",
		"table4": "== Table IV:",
	} {
		if out := runOut(t, "-only", only); !strings.Contains(out, title) {
			t.Errorf("-only %s: output lacks its title %q:\n%s", only, title, out)
		}
	}
}

// TestRetiredFlagsAreRejected: the flags of the deleted second benchmark
// must fail flag parsing, not be accepted and ignored.
func TestRetiredFlagsAreRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-benchjson", "x.json"},
		{"-benchdiff", "x.json"},
		{"-free-riders", "2:noise"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%q) = %v, want an undefined-flag error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q before rejecting the flag", args, out.String())
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
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w // the flag package prints to os.Stderr
	code := report(run([]string{"-nope"}, io.Discard))
	os.Stderr = saved
	w.Close()
	printed, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	got := string(printed) + logged.String()
	if n := strings.Count(got, "flag provided but not defined: -nope"); code != 2 || n != 1 {
		t.Fatalf("-nope: exit %d, error printed %d times, want exit 2 and once:\n%s", code, n, got)
	}
	if !strings.Contains(got, "Usage of mdgan-bench:") {
		t.Fatalf("-nope: no usage printed:\n%s", got)
	}
	if code := report(errors.New("boom")); code != 1 || !strings.Contains(logged.String(), "boom") {
		t.Fatalf("a run error: exit %d, logged %q; want exit 1 and the error logged", code, logged.String())
	}
}
