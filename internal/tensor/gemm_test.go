package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mdgan/internal/parallel"
)

// refMatMul is the triple-loop reference every kernel family is
// checked against, with float64 accumulation so the reference is at
// least as accurate as any kernel.
func refMatMul(a, b *Tensor, tA, tB bool) *Tensor {
	// Element (i, kk) of the left operand is a.Data[i*ars+kk*acs], and
	// likewise for the right: a transposed operand swaps its strides.
	// Plain indexing keeps the reference affordable under -race at the
	// PaperMLP shapes.
	m, k, ars, acs := a.Dim(0), a.Dim(1), a.Dim(1), 1
	if tA {
		m, k, ars, acs = k, m, 1, ars
	}
	n, brs, bcs := b.Dim(1), b.Dim(1), 1
	if tB {
		n, brs, bcs = b.Dim(0), 1, brs
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += float64(a.Data[i*ars+kk*acs]) * float64(b.Data[kk*brs+j*bcs])
			}
			out.Data[i*n+j] = Elem(s)
		}
	}
	return out
}

// sparseTensor is ~60% zeros, like a ReLU activation or a gradient
// gated by one.
func sparseTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := randTensor(rng, shape...)
	for i := range t.Data {
		if rng.Float64() < 0.6 {
			t.Data[i] = 0
		}
	}
	return t
}

// restoreKernel reverts any ForceGemmKernel the test performed when it
// finishes.
func restoreKernel(t testing.TB) {
	prev := gemmTier
	t.Cleanup(func() { applyGemmTier(prev) })
}

// kernelVariants runs fn under every micro-kernel tier available in
// this binary on this CPU: the portable Go kernel always, the AVX2 and
// AVX-512 kernels when the build and CPU have them.
func kernelVariants(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	restoreKernel(t)
	for _, name := range GemmKernels() {
		t.Run(name, func(t *testing.T) {
			if !ForceGemmKernel(name) {
				t.Fatalf("ForceGemmKernel(%q) refused an advertised tier", name)
			}
			fn(t)
		})
	}
}

// gemmShapes covers the dispatch boundaries: below gemmMinWork (legacy
// kernels), above it with M, N, K multiples of the tile, ragged
// remainder shapes in every dimension, more than one KC block, more
// than one MC block, and degenerate single-row/column operands. The
// last group targets the AVX-512 tile (8 rows, 8/16 lanes): M%8, N%16
// and K%KC remainders that exercise every masked-edge combination of
// the wider kernel.
var gemmShapes = [][3]int{
	{3, 5, 4},     // tiny: legacy path
	{16, 64, 32},  // aligned, single block
	{17, 63, 33},  // ragged in every dimension
	{4, 300, 44},  // k spans two KC blocks (f64)
	{37, 530, 29}, // k spans KC blocks at both dtypes
	{300, 40, 24}, // m spans two MC blocks
	{1, 128, 96},  // single output row
	{70, 96, 1},   // single output column
	{5, 1, 9},     // k = 1
	// AVX-512 ragged edges:
	{15, 530, 17}, // m%8=7, n%16=1, k spans the avx512 KC
	{8, 256, 16},  // exactly one 8×16 tile (f32) / two 8×8 tiles (f64), k=KC
	{33, 100, 31}, // m%8=1, n%16=15 — widest masked tail
	{65, 260, 72}, // m%8=1, n%16=8 — half-ZMM f32 tail, aligned f64, k%KC=4
}

// TestMatMulEntryPointsMatchReference checks all nine entry points
// against the naive reference for dense and sparse left operands, at
// every shape class, under every kernel variant.
func TestMatMulEntryPointsMatchReference(t *testing.T) {
	kernelVariants(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, sh := range gemmShapes {
			m, k, n := sh[0], sh[1], sh[2]
			for _, sparse := range []bool{false, true} {
				mk := func(shape ...int) *Tensor {
					if sparse {
						return sparseTensor(rng, shape...)
					}
					return randTensor(rng, shape...)
				}
				tol := Tol(1e-12, 2e-4) * float64(k)
				name := fmt.Sprintf("%dx%dx%d/sparse=%v", m, k, n, sparse)

				a, b := mk(m, k), mk(k, n)
				want := refMatMul(a, b, false, false)
				if got := MatMul(a, b); !got.Equal(want, tol) {
					t.Fatalf("%s: MatMul mismatch", name)
				}
				got := New(m, n)
				MatMulInto(got, a, b)
				if !got.Equal(want, tol) {
					t.Fatalf("%s: MatMulInto mismatch", name)
				}
				got = randTensor(rng, m, n)
				base := got.Clone()
				MatMulAdd(got, a, b)
				base.AddInPlace(want)
				if !got.Equal(base, tol) {
					t.Fatalf("%s: MatMulAdd mismatch", name)
				}

				at, bt := mk(k, m), mk(k, n)
				want = refMatMul(at, bt, true, false)
				if got := MatMulT1(at, bt); !got.Equal(want, tol) {
					t.Fatalf("%s: MatMulT1 mismatch", name)
				}
				got = New(m, n)
				MatMulT1Into(got, at, bt)
				if !got.Equal(want, tol) {
					t.Fatalf("%s: MatMulT1Into mismatch", name)
				}
				got = randTensor(rng, m, n)
				base = got.Clone()
				MatMulT1Add(got, at, bt)
				base.AddInPlace(want)
				if !got.Equal(base, tol) {
					t.Fatalf("%s: MatMulT1Add mismatch", name)
				}

				a2, b2 := mk(m, k), mk(n, k)
				want = refMatMul(a2, b2, false, true)
				if got := MatMulT2(a2, b2); !got.Equal(want, tol) {
					t.Fatalf("%s: MatMulT2 mismatch", name)
				}
				got = New(m, n)
				MatMulT2Into(got, a2, b2)
				if !got.Equal(want, tol) {
					t.Fatalf("%s: MatMulT2Into mismatch", name)
				}
				got = randTensor(rng, m, n)
				base = got.Clone()
				MatMulT2Add(got, a2, b2)
				base.AddInPlace(want)
				if !got.Equal(base, tol) {
					t.Fatalf("%s: MatMulT2Add mismatch", name)
				}
			}
		}
	})
}

// TestGemmStaysInBounds runs packed products whose C ends where a guard
// page begins (guardedWindow), under every kernel tier, at a shape
// ragged against every tile (75 rows: 3 past a multiple of 4 and of 8;
// 85 columns: 1 past a multiple of 4, 5 past 8 and 16). Its last row
// panel and last column panel are edge tiles, which the AVX-512 kernel
// loads and stores through K1 in place and the other tiers merge from a
// stack tile, so a C access past the last valid column of the last row
// faults. It covers storing (MatMulInto) and accumulating into C through
// both packers (MatMulAdd, MatMulT2Add).
func TestGemmStaysInBounds(t *testing.T) {
	const m, k, n = 75, 40, 85
	rng := rand.New(rand.NewSource(41))
	a, b, bt := randTensor(rng, m, k), randTensor(rng, k, n), randTensor(rng, n, k)
	tol := Tol(1e-12, 2e-4) * float64(k)
	kernelVariants(t, func(t *testing.T) {
		if m*k*n < gemmMinWork || gemmSkinnyOK(m, gemmSkinnyMaxStrips) || gemmSkinnyOK(m, gemmSkinnyMaxPairs) {
			t.Fatalf("%dx%dx%d does not reach the packed path on %s", m, k, n, GemmKernel())
		}
		for _, p := range []struct {
			name    string
			b       *Tensor
			tB, add bool
			run     func(out *Tensor)
		}{
			{"MatMulInto", b, false, false, func(out *Tensor) { MatMulInto(out, a, b) }},
			{"MatMulAdd", b, false, true, func(out *Tensor) { MatMulAdd(out, a, b) }},
			{"MatMulT2Add", bt, true, true, func(out *Tensor) { MatMulT2Add(out, a, bt) }},
		} {
			want := refMatMul(a, p.b, false, p.tB)
			out := FromSlice(guardedWindow(t, m*n), m, n)
			if p.add {
				c := randTensor(rng, m, n)
				copy(out.Data, c.Data)
				want.AddInPlace(c)
			}
			p.run(out)
			if !out.Equal(want, tol) {
				t.Fatalf("%s mismatch", p.name)
			}
		}
	})
}

// TestGemmGoKernelBitwiseMatchesLegacy pins the property the packed-Go
// path is documented to have: for k ≤ gemmKC (one k block) the per-
// element accumulation order is identical to the legacy column-tiled
// kernels, so the results are bitwise equal, not merely within
// tolerance.
func TestGemmGoKernelBitwiseMatchesLegacy(t *testing.T) {
	restoreKernel(t)
	ForceGemmKernel("generic")
	rng := rand.New(rand.NewSource(11))
	m, k, n := 21, gemmKC, 19 // above gemmMinWork, single k block, ragged edges
	a, b := randTensor(rng, m, k), randTensor(rng, k, n)
	packed := New(m, n)
	gemm(packed.Data, n, m, n, k, a.Data, k, 1, b.Data, n, 1, false)
	legacy := New(m, n)
	matMulRows(legacy.Data, a.Data, b.Data, k, n, 0, m, false)
	for i, v := range packed.Data {
		if v != legacy.Data[i] {
			t.Fatalf("packed Go kernel diverges from legacy at %d: %v vs %v", i, v, legacy.Data[i])
		}
	}
}

// TestGemmAsmWithinTolOfGo bounds the asm/Go cross-kernel error for
// every assembly tier: the FMA kernels skip intermediate roundings and
// interleave two accumulator sets, so they are not bitwise equal to the
// portable kernel, but must stay within tensor.Tol of it.
func TestGemmAsmWithinTolOfGo(t *testing.T) {
	restoreKernel(t)
	asmTiers := GemmKernels()[1:] // "generic" is the reference
	if len(asmTiers) == 0 {
		t.Skipf("no assembly kernel available (%s)", GemmKernel())
	}
	rng := rand.New(rand.NewSource(13))
	for _, tier := range asmTiers {
		t.Run(tier, func(t *testing.T) {
			for _, sh := range gemmShapes {
				m, k, n := sh[0], sh[1], sh[2]
				a, b := randTensor(rng, m, k), randTensor(rng, k, n)
				ForceGemmKernel(tier)
				asm := MatMul(a, b)
				ForceGemmKernel("generic")
				gop := MatMul(a, b)
				tol := Tol(1e-12, 2e-4) * float64(k)
				if !asm.Equal(gop, tol) {
					t.Fatalf("%dx%dx%d: %s vs go kernel outside tolerance", m, k, n, tier)
				}
			}
		})
	}
}

// TestGemmBitwiseAcrossGOMAXPROCS pins the determinism contract the
// strict engine relies on: a packed matmul fans out inside one call,
// but the k dimension is never split and every C tile is produced by
// exactly one micro-kernel call over identical packed bytes, so the
// result must be bitwise identical across GOMAXPROCS values and task
// splits — under every kernel tier. (On a 1-core host GOMAXPROCS>1
// still schedules the pool workers concurrently, so split boundaries
// and the cooperative B-pack race are genuinely exercised.)
func TestGemmBitwiseAcrossGOMAXPROCS(t *testing.T) {
	restoreKernel(t)
	prevProcs := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		parallel.SetMaxProcs(0)
	}()
	rng := rand.New(rand.NewSource(29))
	shapes := []struct {
		m, k, n int
		op      string // "": a·b; "T2": a·bᵀ; "T1": aᵀ·b
	}{
		{37, 530, 129, ""}, // ragged everywhere, multiple KC blocks
		{64, 256, 96, ""},  // aligned
		{130, 300, 60, ""}, // multiple MC blocks
		// The paper batch, and two of them stacked: on the avx512 tier
		// these are the skinny path, fanned out over column strips,
		// column pairs and — the weight gradient — row blocks.
		{10, 784, 512, ""},
		{10, 512, 785, "T2"},
		{20, 784, 512, ""},
		{784, 20, 512, "T1"},
		// The served generator's bulk batch: six row blocks per strip.
		{64, 128, 784, ""},
	}
	for _, name := range GemmKernels() {
		t.Run(name, func(t *testing.T) {
			ForceGemmKernel(name)
			for _, sh := range shapes {
				m, k, n := sh.m, sh.k, sh.n
				a, b, mul := randTensor(rng, m, k), randTensor(rng, k, n), MatMulInto
				switch sh.op {
				case "T2":
					b, mul = randTensor(rng, n, k), MatMulT2Into
				case "T1":
					a, mul = randTensor(rng, k, m), MatMulT1Into
				}
				runtime.GOMAXPROCS(1)
				parallel.SetMaxProcs(1) // serial reference: regions inline
				want := New(m, n)
				mul(want, a, b)
				for _, procs := range []int{2, 4, 8} {
					runtime.GOMAXPROCS(procs)
					parallel.SetMaxProcs(procs)
					got := New(m, n)
					mul(got, a, b)
					for i, v := range got.Data {
						if v != want.Data[i] {
							t.Fatalf("%dx%dx%d at GOMAXPROCS=%d: element %d differs from serial: %v vs %v",
								m, k, n, procs, i, v, want.Data[i])
						}
					}
				}
				runtime.GOMAXPROCS(prevProcs)
				parallel.SetMaxProcs(0)
			}
		})
	}
}

// TestGemmSteadyStateAllocs pins the pack buffers to the workspace
// pool: the steady-state allocation count of a packed matmul must be a
// small constant (the parallel-region closures) and must not grow with
// the operand sizes — a pool miss on the KB–MB pack buffers would show
// up immediately.
func TestGemmSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	measure := func(m, k, n int) float64 {
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		out := New(m, n)
		MatMulInto(out, a, b) // warm the pool buckets
		return testing.AllocsPerRun(20, func() { MatMulInto(out, a, b) })
	}
	small := measure(16, 64, 32)
	big := measure(320, 600, 256) // multiple MC, KC and (f64) two k blocks
	budget := 6.0
	if raceEnabled {
		budget = 16 // sporadic pool misses under the race detector
	}
	if small > budget {
		t.Fatalf("steady-state packed matmul allocates %v times, budget %v", small, budget)
	}
	if big > 2*small+budget {
		t.Fatalf("allocations grew with operand size: %v (small) vs %v (big) — pack buffers not pooled?", small, big)
	}
}

// TestGemmParallelSteadyStateAllocs pins the fanned-out run-state: with
// GOMAXPROCS>1 a packed matmul submits real parallel regions, and the
// pooled gemmRun, the pooled regions of internal/parallel and the
// pooled pack buffers must keep the steady state at a small constant
// (a region submission itself allocates nothing). ×2 under -race per
// the established convention.
func TestGemmParallelSteadyStateAllocs(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(4)
	parallel.SetMaxProcs(4)
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		parallel.SetMaxProcs(0)
	}()
	rng := rand.New(rand.NewSource(31))
	m, k, n := 256, 300, 192 // multiple MC blocks, two KC blocks, fans out
	a, b := randTensor(rng, m, k), randTensor(rng, k, n)
	out := New(m, n)
	for i := 0; i < 3; i++ {
		MatMulInto(out, a, b) // warm pools across the worker set
	}
	allocs := testing.AllocsPerRun(20, func() { MatMulInto(out, a, b) })
	budget := 12.0
	if raceEnabled {
		// The race-mode sync.Pool fakes misses at random, and a fanned-
		// out matmul cycles several pooled objects per region (gemmRun,
		// pack buffers, regions), so the flat ×2 convention undercounts
		// here.
		budget = 80
	}
	if allocs > budget {
		t.Fatalf("fanned-out packed matmul allocates %v times steady-state, budget %v", allocs, budget)
	}
}

// refPackB is the straightforward definition of a packed B panel:
// dst[(kk-k0)*nr+j] = B[kk][j0+j], zero past column n.
func refPackB(dst, b []Elem, rs, cs, n, k0, k1, j0, nr int) {
	for kk := k0; kk < k1; kk++ {
		for j := 0; j < nr; j++ {
			var v Elem
			if j0+j < n {
				v = b[kk*rs+(j0+j)*cs]
			}
			dst[(kk-k0)*nr+j] = v
		}
	}
}

// refPackA is the same for A row panels of height mr:
// dst[(p-p0)*mr*kc + (kk-k0)*mr + r] = A[p*mr+r][kk], zero past row m.
func refPackA(dst, a []Elem, rs, cs, m, p0, p1, k0, k1, mr int) {
	kc := k1 - k0
	for p := p0; p < p1; p++ {
		for kk := k0; kk < k1; kk++ {
			for r := 0; r < mr; r++ {
				var v Elem
				if i := p*mr + r; i < m {
					v = a[i*rs+kk*cs]
				}
				dst[(p-p0)*mr*kc+(kk-k0)*mr+r] = v
			}
		}
	}
}

// TestPackersMatchReference pins the packers' full-panel fast paths to
// the panel definition element for element: for B every tile width a
// tier can select plus one none does (12, the unspecialised fallback),
// for A the live tier's height (hence kernelVariants — each build and
// tier covers the geometry it dispatches with); the
// row-major, stored-transpose and general-stride views; an extent that
// leaves a ragged last panel; a k range that starts past zero; and
// panel depths of one, an odd handful and a full KC block.
func TestPackersMatchReference(t *testing.T) {
	type view struct {
		name         string
		rs, cs, size int
	}
	const k, k0 = 300, 5
	check := func(t *testing.T, what string, got, want []Elem) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: packed[%d] = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	stale := func(got, want []Elem) {
		for i := range got {
			got[i], want[i] = -1, -2 // every element must be overwritten
		}
	}
	kernelVariants(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for _, kc := range []int{1, 7, 256} {
			for _, nr := range []int{4, 8, 12, 16} {
				n := 3*nr + nr/2 + 1 // three full panels and a ragged one
				got, want := make([]Elem, kc*nr), make([]Elem, kc*nr)
				for _, v := range []view{
					{"row-major", n, 1, k * n},
					{"transpose", 1, k, n * k},
					{"general", 2 * n, 2, 2 * k * n},
				} {
					b := randTensor(rng, v.size).Data
					for j0 := 0; j0 < n; j0 += nr {
						stale(got, want)
						packBStrided(got, b, v.rs, v.cs, n, k0, k0+kc, j0, nr)
						refPackB(want, b, v.rs, v.cs, n, k0, k0+kc, j0, nr)
						check(t, fmt.Sprintf("B nr=%d %s kc=%d j0=%d", nr, v.name, kc, j0), got, want)
					}
				}
			}
			mr := gemmMR
			m, panels := 3*mr+mr/2+1, 4
			got, want := make([]Elem, panels*mr*kc), make([]Elem, panels*mr*kc)
			for _, v := range []view{
				{"row-major", k, 1, m * k},
				{"transpose", 1, m, k * m},
				{"general", 2 * k, 2, 2 * m * k},
			} {
				a := randTensor(rng, v.size).Data
				stale(got, want)
				packAPanels(got, a, v.rs, v.cs, m, 0, panels, k0, k0+kc)
				refPackA(want, a, v.rs, v.cs, m, 0, panels, k0, k0+kc, mr)
				check(t, fmt.Sprintf("A mr=%d %s kc=%d", mr, v.name, kc), got, want)
			}
		}
	})
}

// BenchmarkGEMM measures the GEMM paths at MD-GAN layer shapes and
// reports GFLOP/s via b.ReportMetric. The three b=10 rows are the
// paper-batch Dense products of the MNIST MLP discriminator's input
// layer: forward x·W, input gradient g·Wᵀ and weight gradient xᵀ·g. The
// rows after them sweep the batch dimension across the skinny cut-overs:
// the left operand's row count for the first two (on the avx512 tier
// m ≤ gemmSkinnyMaxStrips = 64 reads the 784×512 weight in place for
// x·W, m ≤ gemmSkinnyMaxPairs = 36 for g·Wᵀ, in 12-row blocks; past
// that it is packed; m = 1 is mdgan-serve's un-fused request, 20 a
// discriminator step's real and generated rows stacked), the served
// generator's three forward products at m = 36…80, and k for the weight
// gradient (k ≤ gemmSkinnyMaxK = 256 streams dW in row blocks).
func BenchmarkGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	type gemmCase struct {
		name    string
		m, k, n int
		run     func(out, x, y *Tensor)
		xs, ys  [2]int // operand shapes as stored
	}
	cases := []gemmCase{
		{"", 64, 800, 6272, MatMulInto, [2]int{64, 800}, [2]int{800, 6272}}, // conv2 forward: (OutC, C·KH·KW)·(ckk, N·oHW)
		{"", 32, 128, 784, MatMulInto, [2]int{32, 128}, [2]int{128, 784}},   // MLP generator output layer at batch 32
		{"", 256, 256, 256, MatMulInto, [2]int{256, 256}, [2]int{256, 256}}, // square reference point
		{"", 512, 512, 512, MatMulInto, [2]int{512, 512}, [2]int{512, 512}}, // square reference point
		{"", 10, 784, 512, MatMulInto, [2]int{10, 784}, [2]int{784, 512}},
		{"T2/", 10, 512, 784, MatMulT2Into, [2]int{10, 512}, [2]int{784, 512}},
		{"T1Add/", 784, 10, 512, MatMulT1Add, [2]int{10, 784}, [2]int{10, 512}},
	}
	for _, m := range []int{1, 4, 12, 13, 16, 20, 24, 32, 36, 48, 64, 80} {
		cases = append(cases,
			gemmCase{"", m, 784, 512, MatMulInto, [2]int{m, 784}, [2]int{784, 512}},
			gemmCase{"T2/", m, 512, 784, MatMulT2Into, [2]int{m, 512}, [2]int{784, 512}})
	}
	for _, m := range []int{36, 48, 64, 80} {
		for _, kn := range [][2]int{{32, 128}, {128, 128}, {128, 784}} {
			cases = append(cases, gemmCase{"", m, kn[0], kn[1], MatMulInto, [2]int{m, kn[0]}, [2]int{kn[0], kn[1]}})
		}
	}
	for _, k := range []int{20, 32, 64, 128} {
		cases = append(cases, gemmCase{"T1Add/", 784, k, 512, MatMulT1Add, [2]int{k, 784}, [2]int{k, 512}})
	}
	for _, c := range cases {
		x, y := randTensor(rng, c.xs[0], c.xs[1]), randTensor(rng, c.ys[0], c.ys[1])
		out := New(c.m, c.n)
		b.Run(fmt.Sprintf("%s%dx%dx%d", c.name, c.m, c.k, c.n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.run(out, x, y)
			}
			flops := 2 * float64(c.m) * float64(c.k) * float64(c.n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
