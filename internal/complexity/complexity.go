// Package complexity implements the paper's analytic cost models:
// computation and memory complexity (Table II), communication
// complexity by link type (Table III), the instantiated communication
// costs of the CIFAR10 deployment (Table IV) and the ingress-traffic
// curves of Figure 2.
//
// Conventions, chosen to reproduce the paper's published numbers:
//   - BytesPerValue defaults to 8 (float64), which reproduces the
//     MD-GAN rows of Table IV exactly (e.g. b·d·8 = 0.23 MB for b=10 on
//     CIFAR10).
//   - Parameter messages (FL-GAN rounds, MD-GAN swaps) are multiplied
//     by OptStateFactor, default 3 (parameter + both Adam moments),
//     which reproduces the FL-GAN rows of Table IV (17.5 MB =
//     3·8·(|θ|+|w|)).
//   - BatchesPerTransfer defaults to 1: the paper's §IV-D1 text says a
//     worker receives two batches (2bd) but Table IV counts bd; the
//     default follows the table, the flag lets you follow the text.
package complexity

import "math"

// Params instantiates the paper's notation (Table I) plus the byte
// conventions above.
type Params struct {
	W     int // |w|: generator parameters
	Theta int // |θ|: discriminator parameters
	B     int // b: batch size
	D     int // d: data object size in scalars (e.g. 3072 for CIFAR10)
	N     int // N: number of workers
	K     int // k: generated batches per MD-GAN iteration
	M     int // m: local dataset size
	E     int // E: epochs per round/swap
	I     int // I: total iterations

	BytesPerValue      int // wire bytes per scalar (default 8)
	OptStateFactor     int // parameter-message multiplier (default 3)
	BatchesPerTransfer int // generated batches counted per C→W message (default 1)
}

// withDefaults returns p with the byte conventions defaulted.
func (p Params) withDefaults() Params {
	if p.BytesPerValue == 0 {
		p.BytesPerValue = 8
	}
	if p.OptStateFactor == 0 {
		p.OptStateFactor = 3
	}
	if p.BatchesPerTransfer == 0 {
		p.BatchesPerTransfer = 1
	}
	if p.E == 0 {
		p.E = 1
	}
	if p.K == 0 {
		p.K = 1
	}
	return p
}

// modelBytes is the size of one (θ+w) parameter message.
func (p Params) modelBytes() float64 {
	return float64(p.Theta+p.W) * float64(p.BytesPerValue*p.OptStateFactor)
}

// discBytes is the size of one swapped discriminator (θ).
func (p Params) discBytes() float64 {
	return float64(p.Theta) * float64(p.BytesPerValue*p.OptStateFactor)
}

// dataBytes is the size of one generated batch (b·d scalars).
func (p Params) dataBytes() float64 {
	return float64(p.B*p.D) * float64(p.BytesPerValue)
}

// TableII holds the computation/memory complexity expressions of
// Table II, evaluated numerically (unit-less operation counts — the
// paper's O(·) arguments).
type TableII struct {
	FLComputeServer float64 // O(IbN(|w|+|θ|)/(mE))
	FLMemoryServer  float64 // O(N(|w|+|θ|))
	FLComputeWorker float64 // O(Ib(|w|+|θ|))
	FLMemoryWorker  float64 // O(|w|+|θ|)
	MDComputeServer float64 // O(Ib(dN+k|w|))
	MDMemoryServer  float64 // O(b(dN+k|w|))
	MDComputeWorker float64 // O(Ib|θ|)
	MDMemoryWorker  float64 // O(|θ|)
}

// ComputeTableII evaluates the Table II expressions for p.
func ComputeTableII(p Params) TableII {
	p = p.withDefaults()
	w, th := float64(p.W), float64(p.Theta)
	b, d := float64(p.B), float64(p.D)
	n, k := float64(p.N), float64(p.K)
	i, m, e := float64(p.I), float64(p.M), float64(p.E)
	return TableII{
		FLComputeServer: i * b * n * (w + th) / (m * e),
		FLMemoryServer:  n * (w + th),
		FLComputeWorker: i * b * (w + th),
		FLMemoryWorker:  w + th,
		MDComputeServer: i * b * (d*n + k*w),
		MDMemoryServer:  b * (d*n + k*w),
		MDComputeWorker: i * b * th,
		MDMemoryWorker:  th,
	}
}

// WorkerReduction returns the Table II headline: the factor by which
// MD-GAN reduces per-worker computation relative to FL-GAN
// ((|w|+|θ|)/|θ|, ≈ 2 when G and D are similar). The model charges a
// worker O(Ib|θ|) for each pass through D and nothing for gradients
// nobody reads; gan.Feedback matches that charge — a forward plus an
// input-only backward, no parameter gradient formed — and gan.DiscStep
// forms no ∂L/∂x of its batches. The measured counterpart of this ratio
// is gan.worker_cost_ratio_vs_flgan of go run ./bench.
func WorkerReduction(p Params) float64 {
	return float64(p.W+p.Theta) / float64(p.Theta)
}

// TableIII holds the per-link communication sizes (bytes) and message
// counts of Table III for one full training run.
type TableIII struct {
	// Per-message sizes in bytes.
	FLCtoWServer float64 // N(θ+w): server egress per round
	FLCtoWWorker float64 // θ+w: worker ingress per round
	FLWtoCWorker float64 // θ+w: worker egress per round
	FLWtoCServer float64 // N(θ+w): server ingress per round
	FLRounds     float64 // Ib/(mE)

	MDCtoWServer float64 // bdN per iteration (×BatchesPerTransfer)
	MDCtoWWorker float64 // bd per iteration
	MDWtoCWorker float64 // bd per iteration (error feedback)
	MDWtoCServer float64 // bdN per iteration
	MDIterations float64 // I
	MDWtoWWorker float64 // θ per swap
	MDSwaps      float64 // Ib/(mE)
}

// ComputeTableIII evaluates Table III for p.
func ComputeTableIII(p Params) TableIII {
	p = p.withDefaults()
	rounds := float64(p.I*p.B) / (float64(p.M) * float64(p.E))
	bd := p.dataBytes() * float64(p.BatchesPerTransfer)
	return TableIII{
		FLCtoWServer: float64(p.N) * p.modelBytes(),
		FLCtoWWorker: p.modelBytes(),
		FLWtoCWorker: p.modelBytes(),
		FLWtoCServer: float64(p.N) * p.modelBytes(),
		FLRounds:     rounds,

		MDCtoWServer: float64(p.N) * bd,
		MDCtoWWorker: bd,
		MDWtoCWorker: p.dataBytes(), // feedback: one float per feature
		MDWtoCServer: float64(p.N) * p.dataBytes(),
		MDIterations: float64(p.I),
		MDWtoWWorker: p.discBytes(),
		MDSwaps:      rounds,
	}
}

// Fig2Series is one batch-size sweep of Figure 2: maximal ingress
// traffic per communication, for workers (plain lines) and the server
// (dotted lines), in bytes.
type Fig2Series struct {
	B        []int
	MDWorker []float64
	MDServer []float64
	FLWorker []float64
	FLServer []float64
}

// ComputeFig2 evaluates the Figure 2 curves for the given batch sizes.
// Worker ingress per MD-GAN communication is the larger of the batch
// message and the swapped discriminator; FL-GAN ingress is
// batch-independent (the crossing of those lines is the figure's
// point).
func ComputeFig2(p Params, batches []int) Fig2Series {
	p = p.withDefaults()
	s := Fig2Series{B: append([]int(nil), batches...)}
	for _, b := range batches {
		q := p
		q.B = b
		bd := q.dataBytes() * float64(q.BatchesPerTransfer)
		s.MDWorker = append(s.MDWorker, math.Max(bd, q.discBytes()))
		s.MDServer = append(s.MDServer, float64(q.N)*q.dataBytes())
		s.FLWorker = append(s.FLWorker, q.modelBytes())
		s.FLServer = append(s.FLServer, float64(q.N)*q.modelBytes())
	}
	return s
}

// CrossoverBatch returns the batch size at which the MD-GAN worker
// ingress line crosses the FL-GAN worker line — the "MD-GAN is
// competitive for smaller batch sizes" threshold of §IV-D1 (b ≈ 550 for
// MNIST, ≈ 400 for CIFAR10 in the paper's setting).
func CrossoverBatch(p Params) float64 {
	p = p.withDefaults()
	perSample := float64(p.D) * float64(p.BytesPerValue) * float64(p.BatchesPerTransfer)
	return p.modelBytes() / perSample
}

// TableIVRow is one column of Table IV (a batch-size configuration).
type TableIVRow struct {
	B            int
	FLCtoWServer float64 // bytes
	FLCtoWWorker float64
	FLWtoCWorker float64
	FLWtoCServer float64
	FLTotalComms float64
	MDCtoWServer float64
	MDCtoWWorker float64
	MDWtoCWorker float64
	MDWtoCServer float64
	MDTotalComms float64
	MDWtoWWorker float64
	MDTotalSwaps float64
}

// ComputeTableIV evaluates Table IV for the given batch sizes.
func ComputeTableIV(p Params, batches []int) []TableIVRow {
	rows := make([]TableIVRow, 0, len(batches))
	for _, b := range batches {
		q := p
		q.B = b
		t := ComputeTableIII(q)
		rows = append(rows, TableIVRow{
			B:            b,
			FLCtoWServer: t.FLCtoWServer,
			FLCtoWWorker: t.FLCtoWWorker,
			FLWtoCWorker: t.FLWtoCWorker,
			FLWtoCServer: t.FLWtoCServer,
			FLTotalComms: t.FLRounds,
			MDCtoWServer: t.MDCtoWServer,
			MDCtoWWorker: t.MDCtoWWorker,
			MDWtoCWorker: t.MDWtoCWorker,
			MDWtoCServer: t.MDWtoCServer,
			MDTotalComms: t.MDIterations,
			MDWtoWWorker: t.MDWtoWWorker,
			MDTotalSwaps: t.MDSwaps,
		})
	}
	return rows
}

// MB converts bytes to the paper's megabytes (MiB).
func MB(bytes float64) float64 { return bytes / (1024 * 1024) }

// PaperCIFARParams returns the parameters of the paper's Table IV
// deployment: CIFAR10 (d = 3072), N = 10 workers, I = 50,000
// iterations, the paper's published CNN parameter counts, 50,000
// training images split evenly.
func PaperCIFARParams() Params {
	return Params{
		W:     628110,
		Theta: 100203,
		D:     3072,
		N:     10,
		M:     5000,
		E:     1,
		I:     50000,
	}
}

// PaperMNISTParams returns the MNIST equivalent (MLP architecture
// published counts, 60,000 images over 10 workers).
func PaperMNISTParams() Params {
	return Params{
		W:     716560,
		Theta: 670219,
		D:     784,
		N:     10,
		M:     6000,
		E:     1,
		I:     50000,
	}
}
