package mdgan_test

// Facade-level tests for the §VII extension knobs and the library
// conveniences (checkpointing, rendering, non-IID sharding).

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mdgan"
)

func TestCheckpointRoundTrip(t *testing.T) {
	g := mdgan.MLPArch(32).NewGAN(1, 0, 1)
	path := filepath.Join(t.TempDir(), "g.ckpt")
	if err := mdgan.SaveGenerator(g.G, path); err != nil {
		t.Fatal(err)
	}
	other := mdgan.MLPArch(32).NewGAN(2, 0, 1)
	if err := mdgan.LoadGenerator(other.G, path); err != nil {
		t.Fatal(err)
	}
	rng1 := rand.New(rand.NewSource(3))
	rng2 := rand.New(rand.NewSource(3))
	a, _ := g.G.Generate(4, rng1, false)
	b, _ := other.G.Generate(4, rng2, false)
	if !a.Equal(b, 0) {
		t.Fatal("checkpoint round trip must be bit-exact")
	}
}

func TestCheckpointRejectsWrongArch(t *testing.T) {
	g := mdgan.MLPArch(32).NewGAN(1, 0, 1)
	path := filepath.Join(t.TempDir(), "g.ckpt")
	if err := mdgan.SaveGenerator(g.G, path); err != nil {
		t.Fatal(err)
	}
	other := mdgan.MLPArch(64).NewGAN(2, 0, 1)
	if err := mdgan.LoadGenerator(other.G, path); err == nil {
		t.Fatal("loading into a differently-shaped generator must fail")
	}
}

func TestSaveSampleGrid(t *testing.T) {
	ds := mdgan.SynthDigits(8, 1)
	path := filepath.Join(t.TempDir(), "grid.png")
	if err := mdgan.SaveSampleGrid(path, ds.X, 4); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		t.Fatalf("grid file missing or empty: %v", err)
	}
}

func TestRunWithCompression(t *testing.T) {
	ds := mdgan.GaussianRing(400, 8, 2.0, 0.05, 1)
	base := mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: 3, Batch: 16, Iters: 15, Seed: 2,
	}
	plain, err := mdgan.Run(ds, mdgan.RingArch(), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.Compress = mdgan.CompressTopK
	sparse, err := mdgan.Run(ds, mdgan.RingArch(), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Traffic.Total() >= plain.Traffic.Total() {
		t.Fatalf("top-k run traffic %d not below plain %d",
			sparse.Traffic.Total(), plain.Traffic.Total())
	}
}

func TestRunWithByzantineAndMedian(t *testing.T) {
	ds := mdgan.GaussianRing(400, 8, 2.0, 0.05, 3)
	o := mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: 5, Batch: 16, Iters: 15, Seed: 4, K: 1,
		Engine: mdgan.Engine{
			Byzantine: map[int]mdgan.ByzantineMode{1: mdgan.ByzantineScale},
			Aggregate: mdgan.AggMedian,
		},
	}
	res, err := mdgan.Run(ds, mdgan.RingArch(), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 15 {
		t.Fatalf("iters = %d", res.Iters)
	}
}

func TestRunWithNonIIDSkew(t *testing.T) {
	ds := mdgan.SynthDigits(600, 5)
	o := mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: 5, Batch: 10, Iters: 10, Seed: 6,
		NonIIDSkew: 1,
	}
	if _, err := mdgan.Run(ds, mdgan.MLPArch(32), o, nil); err != nil {
		t.Fatal(err)
	}
	// The sharding itself must produce the requested skew.
	shards := mdgan.SplitNonIID(ds, 5, 1, 7)
	for _, sh := range shards {
		if mdgan.LabelSkew(sh, ds) < 0.4 {
			t.Fatalf("full-skew shard has skew %v", mdgan.LabelSkew(sh, ds))
		}
	}
}

func TestRunWithActivePerRound(t *testing.T) {
	ds := mdgan.GaussianRing(400, 8, 2.0, 0.05, 8)
	o := mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: 6, Batch: 16, Iters: 12, Seed: 9,
		ActivePerRound: 2, K: 1,
	}
	res, err := mdgan.Run(ds, mdgan.RingArch(), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := mdgan.Run(ds, mdgan.RingArch(), mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: 6, Batch: 16, Iters: 12, Seed: 9, K: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traffic.Total() >= full.Traffic.Total() {
		t.Fatal("client sampling must reduce total traffic")
	}
}

func TestRunWithWorkerJoin(t *testing.T) {
	ds := mdgan.GaussianRing(400, 8, 2.0, 0.05, 10)
	spare := mdgan.GaussianRing(200, 8, 2.0, 0.05, 11)
	o := mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: 2, Batch: 16, Iters: 20, Seed: 12, K: 1,
		Engine: mdgan.Engine{JoinAt: map[int][]*mdgan.Dataset{10: {spare}}},
	}
	res, err := mdgan.Run(ds, mdgan.RingArch(), o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Live) != 3 {
		t.Fatalf("live = %v, want 3 after join", res.Live)
	}
}
