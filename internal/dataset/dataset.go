// Package dataset provides the training data used by the experiments.
// The paper evaluates on MNIST, CIFAR10 and CelebA; those downloads are
// unavailable to an offline module, so this package generates synthetic
// datasets with the same tensor formats, class structure and difficulty
// ordering:
//
//   - SynthDigits — 28×28×1 procedural seven-segment digits (MNIST stand-in)
//   - SynthCIFAR  — 32×32×3 class-conditional colour/texture patterns
//   - SynthFaces  — 32×32×3 procedural face compositions (CelebA stand-in)
//   - GaussianRing — 2-D mixture-of-Gaussians toy set for fast tests
//
// All generators are deterministic given a seed. Pixel values live in
// [−1, 1], matching the Tanh output of the generators.
package dataset

import (
	"fmt"
	"math/rand"

	"mdgan/internal/tensor"
)

// Dataset is an in-memory labelled dataset. X has shape (N, C, H, W) for
// images or (N, D) for vector data.
type Dataset struct {
	Name    string
	X       *tensor.Tensor
	Labels  []int
	Classes int
	// Image geometry; C == 0 means vector data of dimension W.
	C, H, W int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Dim(0) }

// SampleDim returns the flattened per-sample dimension (the paper's
// object size d, in floats).
func (d *Dataset) SampleDim() int { return d.X.Size() / d.Len() }

// Batch gathers the samples at the given indices, returning the data
// tensor and labels.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, []int) {
	x := d.X.Gather(idx)
	labels := make([]int, len(idx))
	for i, j := range idx {
		labels[i] = d.Labels[j]
	}
	return x, labels
}

// Sampler draws random batches from a dataset with its own RNG, so each
// worker samples independently and reproducibly.
type Sampler struct {
	ds  *Dataset
	rng *rand.Rand
	// Reused batch storage: one training iteration draws and consumes a
	// batch before the next draw, so Sample hands out the same buffers
	// every call.
	idx   []int
	x     *tensor.Tensor
	lab   []int
	shape []int
}

// NewSampler returns a sampler over ds seeded with seed.
func NewSampler(ds *Dataset, seed int64) *Sampler {
	return &Sampler{ds: ds, rng: rand.New(rand.NewSource(seed))}
}

// Sample draws a uniform batch of size b with replacement. The returned
// tensor and label slice are sampler-owned and valid until the next
// Sample call.
func (s *Sampler) Sample(b int) (*tensor.Tensor, []int) {
	if cap(s.idx) < b {
		s.idx = make([]int, b)
	}
	s.idx = s.idx[:b]
	for i := range s.idx {
		s.idx[i] = s.rng.Intn(s.ds.Len())
	}
	xs := s.ds.X.Shape()
	s.shape = append(s.shape[:0], b)
	s.shape = append(s.shape, xs[1:]...)
	s.x = tensor.Ensure(s.x, s.shape...)
	rowVol := s.ds.X.Size() / xs[0]
	if cap(s.lab) < b {
		s.lab = make([]int, b)
	}
	s.lab = s.lab[:b]
	for i, j := range s.idx {
		copy(s.x.Data[i*rowVol:(i+1)*rowVol], s.ds.X.Data[j*rowVol:(j+1)*rowVol])
		s.lab[i] = s.ds.Labels[j]
	}
	return s.x, s.lab
}

// Split partitions ds into n i.i.d. shards of near-equal size
// (|B_n| = |B|/n as in paper §V-A), by shuffling with the given seed and
// dealing round-robin. Every sample lands in exactly one shard.
func Split(ds *Dataset, n int, seed int64) []*Dataset {
	if n <= 0 {
		panic("dataset: Split needs n > 0")
	}
	perm := rand.New(rand.NewSource(seed)).Perm(ds.Len())
	shardIdx := make([][]int, n)
	for i, p := range perm {
		shardIdx[i%n] = append(shardIdx[i%n], p)
	}
	out := make([]*Dataset, n)
	for i, idx := range shardIdx {
		x, labels := ds.Batch(idx)
		out[i] = &Dataset{
			Name:    fmt.Sprintf("%s/shard%d", ds.Name, i),
			X:       x,
			Labels:  labels,
			Classes: ds.Classes,
			C:       ds.C, H: ds.H, W: ds.W,
		}
	}
	return out
}

// EpochIters converts a cadence of E local epochs into iterations of
// batch b: every worker passes its m local samples once per m/b
// iterations, so E epochs = m·E/b iterations, rounded to the nearest
// integer and floored at 1. m is the smallest shard's size, so one
// cluster-wide cadence serves uneven shards. MD-GAN's swap interval
// (Algorithm 1 line 11) and FL-GAN's round length both use it; epochs
// ≤ 0, or no shards, returns 0 (disabled).
//
// Truncating m·E/b instead shortens the cadence for small shards:
// m = 100, E = 1, b = 64 would fire every iteration instead of every 2
// (true cadence 1.56), and any m·E < b would collapse to 1 outright.
func EpochIters(shards []*Dataset, epochs, b int) int {
	if epochs <= 0 || len(shards) == 0 {
		return 0
	}
	m := shards[0].Len()
	for _, sh := range shards[1:] {
		m = min(m, sh.Len())
	}
	return max((m*epochs+b/2)/b, 1)
}

// newImageTensor allocates an (n, c, h, w) tensor.
func newImageTensor(n, c, h, w int) *tensor.Tensor { return tensor.New(n, c, h, w) }

// newVecTensor allocates an (n, d) tensor.
func newVecTensor(n, d int) *tensor.Tensor { return tensor.New(n, d) }

// img is a helper for the procedural generators: a single-image view
// with convenience setters, pixel values in [−1, 1].
type img struct {
	c, h, w int
	data    []tensor.Elem
}

func newImg(data []tensor.Elem, c, h, w int) *img {
	for i := range data {
		data[i] = -1 // background
	}
	return &img{c: c, h: h, w: w, data: data}
}

// set writes value v to pixel (x, y) of channel ch if inside bounds.
func (im *img) set(ch, y, x int, v float64) {
	if x < 0 || x >= im.w || y < 0 || y >= im.h {
		return
	}
	im.data[(ch*im.h+y)*im.w+x] = tensor.Elem(v)
}

// setAll writes (r, g, b) to pixel (x, y) across up to 3 channels.
func (im *img) setAll(y, x int, rgb [3]float64) {
	for c := 0; c < im.c; c++ {
		im.set(c, y, x, rgb[c])
	}
}

// fillRect paints a filled rectangle on channel ch.
func (im *img) fillRect(ch, y0, x0, y1, x1 int, v float64) {
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			im.set(ch, y, x, v)
		}
	}
}

// fillEllipse paints a filled axis-aligned ellipse across all channels.
func (im *img) fillEllipse(cy, cx, ry, rx int, rgb [3]float64) {
	for y := cy - ry; y <= cy+ry; y++ {
		for x := cx - rx; x <= cx+rx; x++ {
			dy := float64(y-cy) / float64(ry)
			dx := float64(x-cx) / float64(rx)
			if dy*dy+dx*dx <= 1 {
				im.setAll(y, x, rgb)
			}
		}
	}
}

// addNoise perturbs every pixel with N(0, sigma) clamped to [−1, 1].
func addNoise(data []tensor.Elem, sigma float64, rng *rand.Rand) {
	for i := range data {
		v := float64(data[i]) + sigma*rng.NormFloat64()
		if v > 1 {
			v = 1
		} else if v < -1 {
			v = -1
		}
		data[i] = tensor.Elem(v)
	}
}
