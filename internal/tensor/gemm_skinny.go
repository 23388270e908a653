package tensor

import (
	"sync"

	"mdgan/internal/parallel"
)

// Skinny GEMM: the dispatch step between the legacy kernels and the
// packed GEMM (gemm.go, "Dispatch order"). When one dimension of a
// product is a training batch, nothing is packed: the AVX-512 kernels in
// gemm_skinny_amd64.h keep a gemmSkinnyM-row block of C in registers and
// read the large operand where it lies. Three products come here —
// MatMul* (row-major B: every Dense forward) when the left operand has
// at most gemmSkinnyMaxStrips rows, MatMulT2* (stored-transpose B: every
// Dense input gradient) when it has at most gemmSkinnyMaxPairs, and
// MatMulT1* (every Dense weight gradient) when it has at most
// gemmSkinnyMaxK rows, i.e. k is the batch. The conv layers' products
// come the same way: their few output or input channels are the left
// operand's rows, and the im2col matrix is the operand read in place.
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
// More than gemmSkinnyM rows are taken as ⌈m/12⌉ row blocks per strip or
// column pair. The first block pulls the strip (k×128 bytes) or pair
// from memory, the others find it in L2, so the weights still cross the
// memory bus once; each extra block costs an L2 read of B.
//
// The weight gradient dW (+)= xᵀ·g is the same strip kernel turned
// round: C is the large operand. dW is walked in gemmSkinnyM-row blocks;
// a block's 12 columns of x, copied side by side into pool scratch, are
// already the "A transposed" layout the strip kernel wants, and the
// block is swept across the strips of g, read in place (g is k×n,
// cache-resident at a training batch). So dW is streamed once,
// row-sequentially, and written without being read when the product
// does not accumulate. The packed path spends the same ten outer
// products on packing x into 8-row panels, packing g into 8-column
// panels, and a read-modify-write of dW in 8×8 tiles whose rows are a
// whole dW row apart: at k = 10 a tile's 64 accumulators get 10 FMAs
// each, and the two packs and the tile traffic cost more than the
// arithmetic.
//
// Ragged n, ragged k and row counts below the tile are the kernels'
// business (K masks and one loop body per row count): no load reaches
// past an operand's logical end and no store leaves the m×n block
// (TestSkinnyStaysInBounds).
//
// A strip, column pair or row block depends only on the operands, never
// on which task ran it, and k is never split, so the fan-out below —
// whole strips, pairs or blocks per chunk, at least matMulGrain
// multiply-adds each — is bitwise reproducible at any GOMAXPROCS.
// Nothing outlives the call.

const (
	// gemmSkinnyM is the row count of one skinny block. Twelve is the
	// AVX-512 register budget — 12 rows × 2 vectors of accumulators, two B
	// vectors and a broadcast out of 32 ZMM.
	gemmSkinnyM = 12
	// gemmSkinnyMaxStrips is the largest left-operand row count MatMul*
	// (row-major B: every Dense forward) brings here: five blocks and a
	// ragged sixth, the serving batch cap. BenchmarkGEMM's m sweep (the
	// 784×512 weight and the served generator's 32×128, 128×128 and
	// 128×784 at m = 36, 48, 64, 80; five alternating runs against the
	// packed path, -cpu 1 and 2; CHANGES.md) has the strips ahead on
	// every row at 48 and 64: at m = 64, 128×784 by 31 % (-cpu 1) and
	// 34 % (-cpu 2), 32×128 by 21 % and 33 %, 128×128 by 14 % and 8 %,
	// 784×512 by 6 % and 40 %. At 36 and 80 both sides run one path and
	// tie.
	gemmSkinnyMaxStrips = 64
	// gemmSkinnyMaxPairs is the same for MatMulT2* (stored-transpose B:
	// every Dense input gradient), three blocks. The m sweep (784×512
	// and T2 512×784 at m = 12…48, hot and cold weights, -cpu 1 and 2;
	// CHANGES.md) has the blocks ahead of the packed path on every row
	// up to 36. Past it the dot kernel's per-pair fold loses on short k:
	// with this cut at 64 as well, T2 512×784 still gained at 48 and 64,
	// but T2 m×100×512 lost 22 % at m = 48 and 39 % at 64 (-cpu 1), and
	// 64×128×128 lost 11 %. So the cut sits at the last row count where
	// nothing does.
	gemmSkinnyMaxPairs = 3 * gemmSkinnyM
	// gemmSkinnyMaxK is the largest k MatMulT1* brings here. The k sweep
	// (T1Add 784×k×512, k = 10…512, and conv-shaped 144×k×640, dW cycled
	// through eight buffers so it is never cache-resident; CHANGES.md)
	// has the row blocks ahead at every k up to 256 at -cpu 1 and -cpu 2;
	// from 384 the two-core rows tie.
	gemmSkinnyMaxK = 256
	// gemmSkinnyStrip is the column width of one row-major strip: two
	// ZMM vectors (16 float64 / 32 float32).
	gemmSkinnyStrip = 128 / ElemBytes
)

// gemmSkinnyOK reports whether a product whose batch dimension — the
// left operand's rows for MatMul* and MatMulT2*, k for MatMulT1* — is m
// takes the skinny path, given that product's cut: a pure function of
// the live tier and m.
func gemmSkinnyOK(m, cut int) bool {
	return m <= cut && gemmTier == tierAVX512
}

// The three products the skinny path takes, named by what a chunk of
// the fan-out is.
const (
	skinnyStrips = iota // C = A·B, B row-major: column strips of C
	skinnyPairs         // C = A·Bᵀ, B a stored transpose: column pairs of C
	skinnyBlocks        // C = Aᵀ·B, A stored (k, m): gemmSkinnyM-row blocks of C
)

// skinnyRun is the pooled per-call state of one gemmSkinny invocation,
// handed to ForGrainRanger as a Ranger so a steady-state call allocates
// nothing.
type skinnyRun struct {
	c       []Elem
	ldc     int
	m, n, k int
	// a is A itself (m×k) for skinnyPairs, and otherwise A re-laid per
	// row block, block i at a[i·k:] as k×rows.
	a, b []Elem
	kind int
	add  bool
}

var skinnyRunPool = sync.Pool{New: func() any { return new(skinnyRun) }}

// Range implements parallel.Ranger over chunks [s, e) of the run's kind.
func (g *skinnyRun) Range(s, e int) {
	m, n, k := g.m, g.n, g.k
	switch g.kind {
	case skinnyStrips:
		for p := s; p < e; p++ {
			j := gemmSkinnyStrip * p
			w := min(gemmSkinnyStrip, n-j)
			for i := 0; i < m; i += gemmSkinnyM {
				gemmSkinnyAsm512(&g.c[i*g.ldc+j], g.ldc, &g.a[i*k], &g.b[j], n, k, g.add, min(gemmSkinnyM, m-i), w)
			}
		}
	case skinnyPairs:
		for p := s; p < e; p++ {
			j := 2 * p
			for i := 0; i < m; i += gemmSkinnyM {
				gemmDotAsm512(&g.c[i*g.ldc+j], g.ldc, &g.a[i*k], k, &g.b[j*k], k, k, g.add, min(gemmSkinnyM, m-i), min(2, n-j))
			}
		}
	case skinnyBlocks:
		for p := s; p < e; p++ {
			i := gemmSkinnyM * p
			rows := min(gemmSkinnyM, m-i)
			for j := 0; j < n; j += gemmSkinnyStrip {
				gemmSkinnyAsm512(&g.c[i*g.ldc+j], g.ldc, &g.a[i*k], &g.b[j], n, k, g.add, rows, min(gemmSkinnyStrip, n-j))
			}
		}
	}
}

// gemmSkinny computes C (+)= A·B (skinnyStrips: a is (m, k), b (k, n)),
// A·Bᵀ (skinnyPairs: b is the stored transpose (n, k)) or Aᵀ·B
// (skinnyBlocks: a is stored (k, m), b (k, n)); c is row-major with
// stride ldc.
func gemmSkinny(c []Elem, ldc, m, n, k int, a, b []Elem, kind int, add bool) {
	g := skinnyRunPool.Get().(*skinnyRun)
	g.c, g.ldc, g.m, g.n, g.k = c, ldc, m, n, k
	g.a, g.b, g.kind, g.add = a, b, kind, add
	var at *Tensor
	chunks, work := (n+1)/2, m*k*2
	if kind != skinnyPairs {
		// Re-lay A block by block as k×rows, so the broadcasts of a k step
		// are adjacent whatever the block's row count: a transpose of
		// A's rows for skinnyStrips, a copy of the stored operand's
		// columns for skinnyBlocks.
		at = Get(k * m)
		for i := 0; i < m; i += gemmSkinnyM {
			if rows := min(gemmSkinnyM, m-i); kind == skinnyStrips {
				packCols(at.Data[i*k:], a[i*k:], k, k, rows)
			} else {
				packRows(at.Data[i*k:], a[i:], m, k, rows)
			}
		}
		g.a = at.Data
		chunks, work = (n+gemmSkinnyStrip-1)/gemmSkinnyStrip, m*k*gemmSkinnyStrip
		if kind == skinnyBlocks {
			chunks, work = (m+gemmSkinnyM-1)/gemmSkinnyM, gemmSkinnyM*k*n
		}
	}
	parallel.ForGrainRanger(chunks, matMulGrain/work, g)
	Put(at)
	g.c, g.a, g.b = nil, nil, nil
	skinnyRunPool.Put(g)
}
