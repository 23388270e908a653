package tensor

import (
	"sync"

	"mdgan/internal/parallel"
)

// Skinny-M GEMM: the dispatch step between the legacy kernels and the
// packed GEMM (gemm.go, "Dispatch order"). When the left operand has at
// most gemmSkinnyM rows the right operand is not packed at all: the
// AVX-512 kernels in gemm_skinny_amd64.h keep every row of a C block in
// registers and read B where it lies, once. Only MatMul* (row-major B:
// every Dense forward) and MatMulT2* (stored-transpose B: every Dense
// input gradient) come here; MatMulT1* has k = m rows of weight to
// produce and nothing to pack, and the MatMul*Packed entry points have
// no stored B to read.
//
// Row-major B is walked in column strips of two vectors
// (gemmSkinnyStrip columns): per k step the kernel loads the strip's two
// B vectors and broadcasts one element of each A row into 2·m FMAs. A is
// the only operand re-laid-out — transposed into pool scratch, m·k
// elements, so the m broadcasts of a step are adjacent. A strip's B
// lines are a row apart, which no hardware prefetcher follows, so the
// kernel prefetches them itself.
//
// A stored-transpose B is walked two rows (two C columns) at a time by a
// dot-product kernel: both rows and all m rows of A advance one vector
// of k per step into m×2 lane-wise partial sums, folded to scalars once
// per column pair. Both operands are read in place, sequentially.
//
// Ragged n, ragged k and m below the tile are the kernels' business (K
// masks and one loop body per row count): no load reaches past an
// operand's logical end and no store leaves the m×n block
// (TestSkinnyStaysInBounds).
//
// A strip or column pair depends only on the operands, never on which
// task ran it, so the fan-out below — whole strips or pairs per chunk,
// at least matMulGrain multiply-adds each — is bitwise reproducible at
// any GOMAXPROCS. Nothing outlives the call.

const (
	// gemmSkinnyM is the largest left-operand row count the skinny path
	// takes. Twelve is the AVX-512 register budget — 12 rows × 2 vectors
	// of accumulators, two B vectors and a broadcast out of 32 ZMM — and
	// BenchmarkGEMM's m sweep (m = 12 skinny against m = 13 packed, at
	// 784×512 and T2 512×784; CHANGES.md, PR 19) shows no smaller cut
	// would be faster.
	gemmSkinnyM = 12
	// gemmSkinnyStrip is the column width of one row-major strip: two
	// ZMM vectors (16 float64 / 32 float32).
	gemmSkinnyStrip = 128 / ElemBytes
)

// gemmSkinnyOK reports whether a product with an m-row left operand
// takes the skinny path: a pure function of the live tier and m.
func gemmSkinnyOK(m int) bool {
	return m <= gemmSkinnyM && gemmTier == tierAVX512
}

// skinnyRun is the pooled per-call state of one gemmSkinny invocation,
// handed to ForGrainRanger as a Ranger so a steady-state call allocates
// nothing.
type skinnyRun struct {
	c       []Elem
	ldc     int
	m, n, k int
	// a is A transposed (k×m) for a row-major b, A itself (m×k) for a
	// stored-transpose b.
	a, b    []Elem
	t2, add bool
}

var skinnyRunPool = sync.Pool{New: func() any { return new(skinnyRun) }}

// Range implements parallel.Ranger over column strips (row-major b) or
// column pairs (stored-transpose b) [s, e).
func (g *skinnyRun) Range(s, e int) {
	for p := s; p < e; p++ {
		if g.t2 {
			j := 2 * p
			gemmDotAsm512(&g.c[j], g.ldc, &g.a[0], g.k, &g.b[j*g.k], g.k, g.k, g.add, g.m, min(2, g.n-j))
		} else {
			j := gemmSkinnyStrip * p
			gemmSkinnyAsm512(&g.c[j], g.ldc, &g.a[0], &g.b[j], g.n, g.k, g.add, g.m, min(gemmSkinnyStrip, g.n-j))
		}
	}
}

// gemmSkinny computes C (+)= A·B for m ≤ gemmSkinnyM: c is row-major
// with stride ldc, a is (m, k) row-major, and b is (k, n) row-major or,
// with t2, the stored transpose (n, k).
func gemmSkinny(c []Elem, ldc, m, n, k int, a, b []Elem, t2, add bool) {
	g := skinnyRunPool.Get().(*skinnyRun)
	g.c, g.ldc, g.m, g.n, g.k = c, ldc, m, n, k
	g.a, g.b, g.t2, g.add = a, b, t2, add
	var at *Tensor
	w := 2 // C columns per kernel call: a pair, or a strip
	if !t2 {
		at = Get(k * m)
		packCols(at.Data, a, k, k, m)
		g.a = at.Data
		w = gemmSkinnyStrip
	}
	parallel.ForGrainRanger((n+w-1)/w, matMulGrain/(m*k*w), g)
	Put(at)
	g.c, g.a, g.b = nil, nil, nil
	skinnyRunPool.Put(g)
}
