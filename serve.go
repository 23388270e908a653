package mdgan

// The serving facade: mdgan-train produces a generator checkpoint,
// NewSampleServer turns it into an HTTP sampling service
// (internal/serve — work-conserving request coalescing into batched
// forwards, replica ownership, atomic hot-reload; see that package's
// doc for the contracts). Command mdgan-serve is the daemon wrapper.

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"mdgan/internal/gan"
	"mdgan/internal/serve"
)

// SampleServer coalesces the sampling requests that are waiting when a
// replica is free into batched generator forwards — a lone request is
// served at once — and hot-reloads checkpoints. It implements
// http.Handler (POST /sample, GET /healthz, GET /statusz, POST /reload,
// GET /preview).
type SampleServer = serve.Server

// ServeStatus is the /statusz JSON schema.
type ServeStatus = serve.Status

// ServeOptions configures NewSampleServer. Arch and Checkpoint are
// required; zero values elsewhere select the serving defaults
// (MaxBatch 64, one replica). There is no batching delay to tune: the
// server fuses whoever is waiting and never waits for more. A
// conditional Arch is served with its class embedding, because every
// trainer writes one.
type ServeOptions struct {
	// Arch is the served generator's architecture — checkpoints store
	// parameters only, so the architecture must match the one trained.
	Arch Arch
	// Checkpoint is the SaveGenerator file to serve. Reload re-reads
	// the same path, so a trainer may keep rewriting it (SaveGenerator
	// renames atomically; a reader never sees a half-written file).
	Checkpoint string

	MaxBatch int   // max samples fused into one forward
	Replicas int   // independent generator copies (multi-core hosts)
	Seed     int64 // latent-stream seed
}

// NewSampleServer loads the checkpoint and starts the coalescer; stop
// it with Close. See internal/serve for endpoint and reload semantics.
func NewSampleServer(o ServeOptions) (*SampleServer, error) {
	if o.Arch.BuildG == nil {
		return nil, errors.New("mdgan: ServeOptions.Arch is required")
	}
	if o.Checkpoint == "" {
		return nil, errors.New("mdgan: ServeOptions.Checkpoint is required")
	}
	arch := o.Arch
	return serve.NewServer(serve.Config{
		New: func() *Generator {
			// Shapes are all that matter here — Load overwrites every
			// parameter — so the init seed is arbitrary.
			rng := rand.New(rand.NewSource(1))
			return gan.NewGenerator(arch.BuildG(rng), arch.ZDim, arch.Classes, rng)
		},
		Load:     func(g *Generator) error { return LoadGenerator(g, o.Checkpoint) },
		MaxBatch: o.MaxBatch,
		Replicas: o.Replicas,
		Seed:     o.Seed,
	})
}

// ArchByName resolves a textual architecture name — the CLI surface
// (mdgan-serve -arch, matching what mdgan-train trained):
//
//	ring                     the Gaussian-ring toy MLP
//	mlp:<h>                  width-h MLP for 28×28 digits (mlp:128 = ArchFor digits)
//	paper-mlp                the paper's exact MLP (716,560 G params)
//	paper-cnn-mnist          the paper-shaped CNN for MNIST
//	paper-cnn-cifar          the paper-shaped CNN for CIFAR10
//	faces                    the Fig. 6 CelebA-style CNN
//	cnn:<c>x<size>x<classes> scaled CNN, e.g. cnn:3x32x10
func ArchByName(name string) (Arch, error) {
	switch {
	case name == "ring":
		return RingArch(), nil
	case name == "paper-mlp":
		return PaperMLPArch(), nil
	case name == "paper-cnn-mnist":
		return PaperCNNMNISTArch(), nil
	case name == "paper-cnn-cifar":
		return PaperCNNCIFARArch(), nil
	case name == "faces":
		return FacesArch(), nil
	case strings.HasPrefix(name, "mlp:"):
		h, err := strconv.Atoi(name[len("mlp:"):])
		if err != nil || h <= 0 {
			return Arch{}, fmt.Errorf("mdgan: bad MLP width in %q (want e.g. mlp:128)", name)
		}
		return MLPArch(h), nil
	case strings.HasPrefix(name, "cnn:"):
		parts := strings.Split(name[len("cnn:"):], "x")
		if len(parts) == 3 {
			c, err1 := strconv.Atoi(parts[0])
			size, err2 := strconv.Atoi(parts[1])
			classes, err3 := strconv.Atoi(parts[2])
			if err1 == nil && err2 == nil && err3 == nil && c > 0 && size > 0 && classes >= 0 {
				return CNNArch(c, size, classes), nil
			}
		}
		return Arch{}, fmt.Errorf("mdgan: bad CNN spec %q (want cnn:<channels>x<size>x<classes>, e.g. cnn:3x32x10)", name)
	default:
		return Arch{}, fmt.Errorf("mdgan: unknown architecture %q (ring, mlp:<h>, paper-mlp, paper-cnn-mnist, paper-cnn-cifar, faces, cnn:<c>x<size>x<classes>)", name)
	}
}
