package mdgan_test

// Facade-level serving tests: NewSampleServer end to end against real
// checkpoint files, including the hot-reload × checkpoint-format matrix
// the internal/serve tests cannot cover (they use injected loaders):
// cross-dtype checkpoints (a float32 build's file served by a float64
// build and vice versa) and legacy pre-magic files.

import (
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdgan"
	"mdgan/internal/nn"
	"mdgan/internal/tensor"
)

// newCkptGAN builds a small conditional generator with distinct
// parameters per seed.
func newCkptGAN(seed int64) *mdgan.Generator {
	return mdgan.MLPArch(16).NewGAN(seed, 0, 1).G
}

// writeCheckpointAs hand-writes a checkpoint for g with every parameter
// frame encoded at wire dtype dt — the file a build of the OTHER
// element type would produce with SaveGenerator.
func writeCheckpointAs(t *testing.T, g *mdgan.Generator, path string, dt byte) {
	t.Helper()
	buf := []byte{'M', 'D', 'G', 2}
	buf = nn.AppendParams(buf, g.Params(), dt)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeLegacyCheckpoint hand-writes the pre-magic format: bare
// rank-first float64 frames, no header, no dtype bytes.
func writeLegacyCheckpoint(t *testing.T, g *mdgan.Generator, path string) {
	t.Helper()
	var buf []byte
	for _, p := range g.Params() {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.W.Rank()))
		for _, d := range p.W.Shape() {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
		}
		for _, v := range p.W.Data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(v)))
		}
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// replayServer recomputes what a just-started server (replica 0, the
// default Seed 1) must return for its first n-sample batch: load the
// same checkpoint, replay the latent stream, clone the forward.
func replayServer(t *testing.T, path string, seed int64, n int) *mdgan.Tensor {
	t.Helper()
	g := newCkptGAN(99) // arbitrary init; Load overwrites everything
	if err := mdgan.LoadGenerator(g, path); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	z, labels := g.SampleZ(n, rng)
	return g.Forward(z, labels, false).Clone()
}

func startServer(t *testing.T, path string) *mdgan.SampleServer {
	t.Helper()
	s, err := mdgan.NewSampleServer(mdgan.ServeOptions{
		Arch:       mdgan.MLPArch(16),
		Checkpoint: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestSampleServerServesCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.ckpt")
	if err := mdgan.SaveGenerator(newCkptGAN(41), path); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, path)
	want := replayServer(t, path, 1, 3)

	got, _, err := s.Sample(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release(got)
	if !got.Equal(want, 0) {
		t.Fatal("served samples differ from checkpoint replay")
	}
}

// TestSampleServerHTTPRoundTrip drives the facade over a real HTTP
// listener: the raw tensor response must decode back to the replayed
// forward bit for bit.
func TestSampleServerHTTPRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.ckpt")
	if err := mdgan.SaveGenerator(newCkptGAN(43), path); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, path)
	want := replayServer(t, path, 1, 2)

	hs := httptest.NewServer(s)
	defer hs.Close()
	resp, err := http.Post(hs.URL+"/sample?n=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /sample: %s: %s", resp.Status, body)
	}
	if dt := resp.Header.Get("X-MDGAN-Dtype"); dt != tensor.DTypeName {
		t.Fatalf("X-MDGAN-Dtype = %q, want %q", dt, tensor.DTypeName)
	}
	var got tensor.Tensor
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Fatal("HTTP raw response differs from checkpoint replay")
	}
}

// TestSampleServerHotReloadCrossDtype: a running server must hot-reload
// a checkpoint written by a build of the OTHER element type — the
// trainer fleet and the serving fleet need not be compiled alike.
func TestSampleServerHotReloadCrossDtype(t *testing.T) {
	otherDT := tensor.DTypeF32
	if tensor.DTypeName == "float32" {
		otherDT = tensor.DTypeF64
	}
	path := filepath.Join(t.TempDir(), "g.ckpt")
	if err := mdgan.SaveGenerator(newCkptGAN(7), path); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, path)
	before := replayServer(t, path, 1, 4)

	// The trainer (other-dtype build) rewrites the checkpoint in place.
	writeCheckpointAs(t, newCkptGAN(8), path, otherDT)
	if err := s.Reload(); err != nil {
		t.Fatalf("cross-dtype reload: %v", err)
	}
	want := replayServer(t, path, 1, 4)
	if want.Equal(before, 0) {
		t.Fatal("test is vacuous: old and new checkpoints generate identically")
	}

	got, _, err := s.Sample(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release(got)
	// No batch ran before the reload, so the first post-reload batch
	// uses the latent stream from the top — exactly what replayServer
	// replayed against the rewritten checkpoint.
	if !got.Equal(want, 0) {
		t.Fatal("post-reload samples do not match the cross-dtype checkpoint")
	}
}

// TestSampleServerServesLegacyCheckpoint: pre-magic checkpoints (bare
// float64 frames) must serve and hot-reload like current ones.
func TestSampleServerServesLegacyCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.ckpt")
	writeLegacyCheckpoint(t, newCkptGAN(11), path)
	s := startServer(t, path)
	want := replayServer(t, path, 1, 2)

	got, _, err := s.Sample(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Fatal("legacy checkpoint served wrong samples")
	}
	s.Release(got)
	// And it reloads: corrupting the file must NOT take the old weights
	// down with it (reload failure keeps serving).
	if err := os.WriteFile(path, []byte{'M', 'D', 'G', 99}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(); err == nil {
		t.Fatal("reload of a future-version checkpoint must fail")
	}
	got2, _, err := s.Sample(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Release(got2)
}

func TestArchByName(t *testing.T) {
	good := []struct {
		name    string
		archNam string
	}{
		{"ring", "ring-mlp"},
		{"paper-mlp", "paper-mlp"},
		{"paper-cnn-mnist", "paper-cnn"},
		{"paper-cnn-cifar", "paper-cnn"},
		{"faces", "faces-cnn"},
		{"mlp:64", "scaled-mlp"},
		{"cnn:1x28x10", "scaled-cnn"},
	}
	for _, c := range good {
		a, err := mdgan.ArchByName(c.name)
		if err != nil {
			t.Errorf("ArchByName(%q): %v", c.name, err)
			continue
		}
		if a.BuildG == nil {
			t.Errorf("ArchByName(%q): nil BuildG", c.name)
		}
		if !strings.Contains(a.Name, strings.Split(c.archNam, "-")[0]) && a.Name != c.archNam {
			t.Logf("ArchByName(%q) resolved to arch %q", c.name, a.Name)
		}
	}
	for _, bad := range []string{"", "mlp", "mlp:", "mlp:x", "mlp:-3", "cnn:3x32", "cnn:axbxc", "resnet"} {
		if _, err := mdgan.ArchByName(bad); err == nil {
			t.Errorf("ArchByName(%q): expected error", bad)
		}
	}
}
