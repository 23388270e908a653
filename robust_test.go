package mdgan_test

import (
	"reflect"
	"testing"

	"mdgan"
)

func TestParseFreeRiders(t *testing.T) {
	cases := []struct {
		spec string
		want map[int]mdgan.ByzantineMode
		ok   bool
	}{
		{"", nil, true},
		{"2", map[int]mdgan.ByzantineMode{0: mdgan.FreeRiderRandom, 1: mdgan.FreeRiderRandom}, true},
		{"1:replay", map[int]mdgan.ByzantineMode{0: mdgan.FreeRiderReplay}, true},
		{"2=noise, 5=replay", map[int]mdgan.ByzantineMode{2: mdgan.FreeRiderScaledNoise, 5: mdgan.FreeRiderReplay}, true},
		{"0", map[int]mdgan.ByzantineMode{}, true},
		{"x", nil, false},
		{"-1", nil, false},
		{"2:jam", nil, false},
		{"2=jam", nil, false},
		{"a=replay", nil, false},
		{"2replay", nil, false},
	}
	for _, tc := range cases {
		got, err := mdgan.ParseFreeRiders(tc.spec)
		if (err == nil) != tc.ok {
			t.Fatalf("ParseFreeRiders(%q) err = %v, want ok=%v", tc.spec, err, tc.ok)
		}
		if tc.ok && len(tc.want) > 0 && !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("ParseFreeRiders(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
}

func TestParseLifetimes(t *testing.T) {
	got, err := mdgan.ParseLifetimes("1=0:40, 4=20:60")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]mdgan.Lifetime{
		1: {Join: 0, Retire: 40},
		4: {Join: 20, Retire: 60},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseLifetimes = %v, want %v", got, want)
	}
	if got, err := mdgan.ParseLifetimes(""); err != nil || got != nil {
		t.Fatalf("empty spec = %v, %v", got, err)
	}
	for _, bad := range []string{"1", "1=5", "1=a:b", "x=0:5"} {
		if _, err := mdgan.ParseLifetimes(bad); err == nil {
			t.Fatalf("ParseLifetimes(%q) must error", bad)
		}
	}
}

// TestRobustnessOptionsWireThrough: the facade smoke for the
// robustness tentpole — free-riders, the defense, a temporary
// discriminator and the joiner warm-up all enabled through Options.
// The in-depth behavioral assertions live in internal/core; this pins
// that the public surface plumbs every knob through.
func TestRobustnessOptionsWireThrough(t *testing.T) {
	ds := mdgan.GaussianRing(600, 8, 2.0, 0.05, 3)
	res, err := mdgan.Run(ds, mdgan.RingArch(), mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: 4, Batch: 16, Iters: 12, Seed: 4,
		Engine: mdgan.Engine{
			Byzantine:  map[int]mdgan.ByzantineMode{1: mdgan.FreeRiderRandom},
			Defense:    true,
			Lifetimes:  map[int]mdgan.Lifetime{2: {Retire: 8}},
			JoinWarmup: 3,
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Defense == nil {
		t.Fatal("defense-enabled run returned no defense snapshots")
	}
	if res.Faults.Retirements != 1 {
		t.Fatalf("faults = %+v, want the scheduled retirement recorded", res.Faults)
	}
}
