package tensor

// Packed, register-blocked GEMM. This file is the macro layer: cache
// blocking, operand packing and the parallel split. The MR×NR
// micro-kernels live in gemm_kernel64.go / gemm_kernel32.go (portable
// Go) and gemm_amd64.h (AVX2+FMA and AVX-512, written once over the
// element width and instantiated per dtype by gemm_amd64_f64.s /
// gemm_amd64_f32.s), selected at runtime — see gemm_cpu_amd64.go and
// the `noasm` build tag.
//
// # Architecture
//
// One GEMM call C (+)= A·B is driven as the classic three-level blocked
// loop nest (the gonum/BLIS structure):
//
//	for jc over n in gemmNC columns:        // bound the packed-B buffer
//	  for pc over k in gemmKC depths:       // cache-sized panel depth
//	    parallel over MR-row panels of A:   // the ForGrain split
//	      for bp over the task's panels in gemmMC blocks:  // L2-sized
//	        pack A[rows, pc:pc+kc]          // → MR-tall row panels
//	        for each NR panel × MR panel:   // macro-kernel
//	          cooperatively pack B panel on first touch
//	          micro-kernel: MR×NR tile over kc
//
// Packing copies each operand block once per (pc, jc) block into a
// pool-backed contiguous buffer whose layout matches exactly the order
// the micro-kernel streams it:
//
//	packed A panel p: MR rows interleaved by k —
//	    apack[p*MR*kc + (kk-pc)*MR + r] = A[p*MR+r, kk]
//	packed B panel q: NR columns interleaved by k —
//	    bpack[q*NR*kc + (kk-pc)*NR + j] = B[kk, jc+q*NR+j]
//
// so the kernel's inner loop reads both operands with unit stride
// regardless of how A and B are stored. Transposed operands (the
// MatMulT1/T2 backward passes) are absorbed here: packing reads through
// an (rs, cs) strided view, so aᵀ·b and a·bᵀ never strided-read inside
// the kernel and never materialise a transpose. Panels at the m/n edges
// are zero-padded to full MR/NR width; on the AVX-512 tier the kernel
// itself masks the ragged C store, on the other tiers the edge tile is
// computed into an on-stack buffer and only the valid region merged.
//
// At the paper's batch size (b = 10) a layer's weight matrix is packed
// once per call and multiplied by ten rows, so the packers run at the
// speed of the copy or they are the GEMM. A full-width panel of either
// operand is one of two shapes, shared by packAPanels and packBStrided:
// w-wide contiguous source rows stacked k-deep (row-major B, stored-
// transpose A — packRows) or w contiguous source runs interleaved by k
// (stored-transpose B, i.e. every MatMulT2* and so every Dense input
// gradient, and row-major A — packCols). Both are specialised at the
// live tile widths 4, 8 and 16: packRows moves a 32- or 64-byte row
// without a call into runtime.memmove, packCols reads its runs side by
// side in one pass over the panel instead of one strided pass per run.
// Ragged edge panels and general-stride views keep the element loops;
// every path writes the same bytes (TestPackersMatchReference).
//
// The k dimension is never split across tasks: block pc accumulates
// into C before block pc+1 starts, so every C element is produced by a
// deterministic addition chain and results do not depend on the
// scheduler's interleaving.
//
// # Parallel split
//
// A single GEMM call fans out on parallel.ForGrainRanger in units of
// MR-row packed panels — the natural chunk boundary, since a task packs
// exactly the A panels it owns into its own pool buffer. The grain is
// sized so one task carries at least matMulGrain multiply-adds.
//
// B panels are packed cooperatively inside the same region: each panel
// carries an atomic state (empty → packing → ready) and the first row
// task to need it claims and fills it; later tasks that hit a panel
// mid-pack yield until it is ready. Tasks walk the B panels starting at
// an offset derived from their row range, so concurrent tasks touch
// disjoint panels first and the pack work itself spreads across the
// pool instead of stampeding panel 0. This replaces a separate
// pack-B region + barrier per (jc, pc) block with zero extra
// synchronisation points.
//
// Determinism: a packed B panel's bytes depend only on the operands and
// the block coordinates — never on which task packed it or in what
// order panels were visited — and each C tile is written by exactly one
// micro-kernel call per pc block. Results are therefore bitwise
// identical across GOMAXPROCS values and task split boundaries; the
// strict-engine bitwise pin relies on this.
//
// # Dispatch order (see matMulInto and friends in matmul.go)
//
//  1. small products (m·k·n < gemmMinWork; packing overhead
//     dominates) → nothing packed: the step-1 AVX-512 kernels on the
//     avx512 tier, the column-tiled Go loops on every other. Both round
//     and add every product in the same order, so step 1's results do
//     not depend on the tier (matmul.go's smallProduct)
//  2. a batch-sized dimension on the avx512 tier → the pack-free skinny
//     kernels (gemm_skinny.go): MatMul* with at most gemmSkinnyMaxStrips
//     (64) left-operand rows — every training forward and every serving
//     batch — MatMulT2* with at most gemmSkinnyMaxPairs (36), MatMulT1*
//     with at most gemmSkinnyMaxK (256) — there k is the batch
//  3. everything else → this file, with the widest micro-kernel the CPU
//     and build allow:
//
//	tier      tile (f64)  tile (f32)  requires
//	avx512    8×8         8×16        avx512 f+vl+dq+bw, XCR0 opmask+ZMM
//	avx2      4×4         4×8         AVX2 + FMA, XCR0 YMM
//	generic   4×4         4×8         nothing (pure Go)
//
// Why step 2: at the paper's batch size a Dense layer multiplies ten
// rows by its whole weight matrix, so each weight meets ten FMAs and the
// product runs at the speed the weights arrive. Packing first reads
// every weight, writes it to a panel and reads it again, and the 8-row
// tile then computes ten rows as sixteen; ten rows cannot pay for that.
// The skinny kernels hold a 12-row block of C in registers and read
// each weight once, from where it is stored. The weight gradient is the
// same bargain seen from the other side: xᵀ·g adds ten outer products
// to a weight-shaped dW, and the packed path packs both operands and
// read-modify-writes dW in 8×8 tiles to do it; the skinny path streams
// dW once, in 12-row blocks, against a g that stays in cache
// (gemm_skinny.go has the walk). Results differ from the packed path's
// in the last bits, which is why the choice must be — and is — a pure
// function of (tier, dtype, m, k, n): the a·bᵀ kernel sums each element
// as one partial sum per vector lane folded at the end, and all three
// start an accumulating product from C instead of adding C last.
//
// MDGAN_GEMM_KERNEL={generic,avx2,avx512} forces a tier at startup
// (ignored, falling back to the best available, when the CPU or build
// lacks it); ForceGemmKernel does the same at runtime for tests and
// benchmarks. verify.sh re-runs the engine-equivalence gates under
// every available tier this way.
//
// # Adding a new architecture
//
// Implement the micro-kernel contract for the new ISA: given packed
// panels a (MR·kc) and b (NR·kc), compute the full MR×NR tile
// t[r][j] = Σ_kk a[kk*MR+r]·b[kk*NR+j] and either store it to or
// accumulate it into c (row stride ldc). Write it once, in a macro
// header over the element width and the vector mnemonics that two stub
// .s files instantiate per dtype, as gemm_amd64.h is. Supply a feature
// probe in a gemm_cpu_<arch>.go, gate both behind `<arch> && !noasm`,
// extend gemm_noasm.go's constraint so every other build keeps the Go
// kernel, and add a tier to the dispatch below. Tile sizes are
// per-dtype, per-tier constants in gemm_dims64.go / gemm_dims32.go;
// packing adapts automatically to the live gemmMR/gemmNR/gemmKC.
//
// The AVX-512 kernel is the worked example of every step:
//
//   - Why MR×NR changed: a ZMM vector holds 8 f64 / 16 f32, so one
//     vector is a full accumulator row and the tile grows to 8×8 f64 /
//     8×16 f32 — 16 accumulator registers out of 32 ZMM (the k loop
//     is unrolled ×2 into two sets of 8, as the AVX2 kernel's is into
//     two of 4), still leaving two B vectors, two broadcast temps and a
//     C temp. The wider tile quadruples the flops per packed element
//     streamed, which is where the ≥1.5× over AVX2 comes from. KC
//     shrinks on the f32 tier (gemm_dims32.go) to keep the packed
//     panels cache-resident.
//   - Mask registers replace the stack-tile edge path: the kernel takes
//     (mr, nr), loads and stores C through K1 = (1<<nr)-1 and stops the
//     row walk at mr, while the packed operands stay zero-padded to
//     full width. gemmRun.Range therefore calls it directly for edge
//     tiles instead of merging an on-stack tile.
//   - Probe: detectGemmAVX512 requires CPUID leaf 7 EBX avx512
//     {f,dq,bw,vl} and XCR0 0xE6 (SSE+AVX+opmask+ZMM state saved by the
//     OS) — the same belt-and-braces shape as the AVX2 probe.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mdgan/internal/parallel"
)

// gemmMinWork is the m·k·n product below which the packed path is not
// worth the two operand copies and step 1 (smallProduct) runs instead.
const gemmMinWork = 1 << 14

// gemmTierID enumerates the micro-kernel tiers in ascending width.
type gemmTierID int

const (
	tierGeneric gemmTierID = iota
	tierAVX2
	tierAVX512
)

// Live kernel tier and its tile geometry. Mutated only by
// applyGemmTier, which callers (env init, ForceGemmKernel) must not
// invoke concurrently with running GEMMs — the same contract the old
// boolean asm switch had.
var (
	gemmTier = tierGeneric
	gemmMR   = gemmMRBase
	gemmNR   = gemmNRBase
	gemmKC   = gemmKCBase
)

func applyGemmTier(t gemmTierID) {
	gemmTier = t
	if t == tierAVX512 {
		gemmMR, gemmNR, gemmKC = gemmMR512, gemmNR512, gemmKC512
	} else {
		gemmMR, gemmNR, gemmKC = gemmMRBase, gemmNRBase, gemmKCBase
	}
}

// gemmTierAvailable reports whether this build + CPU can run tier t.
func gemmTierAvailable(t gemmTierID) bool {
	switch t {
	case tierAVX2:
		return gemmHasAVX2
	case tierAVX512:
		return gemmHasAVX512
	default:
		return true
	}
}

func bestGemmTier() gemmTierID {
	switch {
	case gemmHasAVX512:
		return tierAVX512
	case gemmHasAVX2:
		return tierAVX2
	default:
		return tierGeneric
	}
}

// ForceGemmKernel selects the micro-kernel tier at runtime: "generic",
// "avx2", "avx512", or ""/"best" for the widest available. It reports
// whether the request was honoured; asking for a tier the CPU or build
// lacks leaves the dispatch unchanged and returns false, so callers
// (tests, verify.sh via MDGAN_GEMM_KERNEL) skip gracefully. Not safe
// to call concurrently with running GEMMs.
func ForceGemmKernel(name string) bool {
	switch name {
	case "", "best":
		applyGemmTier(bestGemmTier())
		return true
	case "generic":
		applyGemmTier(tierGeneric)
		return true
	case "avx2":
		if !gemmTierAvailable(tierAVX2) {
			return false
		}
		applyGemmTier(tierAVX2)
		return true
	case "avx512":
		if !gemmTierAvailable(tierAVX512) {
			return false
		}
		applyGemmTier(tierAVX512)
		return true
	}
	return false
}

// GemmKernel names the micro-kernel the packed GEMM currently
// dispatches to: "avx512", "avx2+fma", or "generic", with "(noasm)"
// marking builds that compiled the assembly out. It is a diagnostic:
// tests print it when they skip for want of a tier.
func GemmKernel() string {
	switch gemmTier {
	case tierAVX512:
		return "avx512"
	case tierAVX2:
		return "avx2+fma"
	}
	if gemmAsmCompiled {
		return "generic"
	}
	return "generic (noasm)"
}

// GemmKernels lists the tier names this build + CPU can run, in the
// order verify.sh's kernel matrix iterates them. Each entry is a valid
// ForceGemmKernel argument.
func GemmKernels() []string {
	ks := []string{"generic"}
	if gemmHasAVX2 {
		ks = append(ks, "avx2")
	}
	if gemmHasAVX512 {
		ks = append(ks, "avx512")
	}
	return ks
}

// packRows fills a full-width packed panel from w-wide contiguous
// source rows: dst[kk*w+r] = src[kk*stride+r] for kk < kc, r < w. It is
// the full-panel body of row-major B and of a stored-transpose A. A row
// is 32 or 64 bytes at the live tile widths, where a copy call spends
// more in runtime.memmove's prologue than on the bytes, so widths 4 and
// 8 move element by element and width 16 (f32 on AVX-512) through a
// local array, which the compiler turns into four vector moves; a plain
// array-to-array assignment would still call memmove, since dst and src
// may alias as far as it can tell.
func packRows(dst, src []Elem, stride, kc, w int) {
	o := 0
	switch w {
	case 4:
		for kk := 0; kk < kc; kk++ {
			s := src[kk*stride : kk*stride+4 : kk*stride+4]
			d := dst[o : o+4 : o+4]
			d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
			o += 4
		}
	case 8:
		for kk := 0; kk < kc; kk++ {
			s := src[kk*stride : kk*stride+8 : kk*stride+8]
			d := dst[o : o+8 : o+8]
			d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
			d[4], d[5], d[6], d[7] = s[4], s[5], s[6], s[7]
			o += 8
		}
	case 16:
		for kk := 0; kk < kc; kk++ {
			row := *(*[16]Elem)(src[kk*stride:])
			*(*[16]Elem)(dst[o:]) = row
			o += 16
		}
	default:
		for kk := 0; kk < kc; kk++ {
			copy(dst[o:o+w], src[kk*stride:kk*stride+w])
			o += w
		}
	}
}

// packCols fills a full-width packed panel by interleaving w contiguous
// source runs of length kc: dst[kk*w+r] = src[r*stride+kk]. It is the
// full-panel body of row-major A and of a stored-transpose B (every
// MatMulT2*, i.e. every Dense input gradient). The live tile widths
// read their runs side by side in one pass over dst, four or eight at a
// time; any other width falls back to one strided pass per run.
func packCols(dst, src []Elem, stride, kc, w int) {
	switch w {
	case 4:
		r0 := src[:kc]
		r1 := src[stride:][:kc]
		r2 := src[2*stride:][:kc]
		r3 := src[3*stride:][:kc]
		o := 0
		for kk, v := range r0 {
			d := dst[o : o+4 : o+4]
			d[0], d[1], d[2], d[3] = v, r1[kk], r2[kk], r3[kk]
			o += 4
		}
	case 8, 16:
		for off := 0; off < w; off += 8 {
			s := src[off*stride:]
			r0 := s[:kc]
			r1 := s[stride:][:kc]
			r2 := s[2*stride:][:kc]
			r3 := s[3*stride:][:kc]
			r4 := s[4*stride:][:kc]
			r5 := s[5*stride:][:kc]
			r6 := s[6*stride:][:kc]
			r7 := s[7*stride:][:kc]
			o := off
			for kk, v := range r0 {
				d := dst[o : o+8 : o+8]
				d[0], d[1], d[2], d[3] = v, r1[kk], r2[kk], r3[kk]
				d[4], d[5], d[6], d[7] = r4[kk], r5[kk], r6[kk], r7[kk]
				o += w
			}
		}
	default:
		for r := 0; r < w; r++ {
			o := r
			for _, v := range src[r*stride:][:kc] {
				dst[o] = v
				o += w
			}
		}
	}
}

// packBStrided fills one packed panel of a stored B operand viewed as
// B[kk][j] = b[kk*rs + j*cs] with n logical columns (the packer behind
// the nine MatMul entry points). Full panels of a row-major or
// stored-transpose operand take packRows / packCols; ragged edge panels
// and the general-stride view keep the element loops below. Either way
// the panel's bytes are the same.
func packBStrided(dst []Elem, b []Elem, rs, cs, n, k0, k1, j0, nr int) {
	jn := n - j0 // valid columns in this panel
	if jn >= nr {
		if cs == 1 {
			packRows(dst, b[k0*rs+j0:], rs, k1-k0, nr)
			return
		}
		if rs == 1 {
			packCols(dst, b[j0*cs+k0:], cs, k1-k0, nr)
			return
		}
		jn = nr
	}
	if cs == 1 {
		// Row-major B: each k row is a contiguous copy.
		for kk := k0; kk < k1; kk++ {
			row := dst[(kk-k0)*nr : (kk-k0)*nr+nr]
			copy(row, b[kk*rs+j0:kk*rs+j0+jn])
			for j := jn; j < nr; j++ {
				row[j] = 0
			}
		}
		return
	}
	if rs == 1 {
		// B is a stored transpose (a·bᵀ): each logical column is a
		// contiguous source run, written with stride nr.
		for j := 0; j < jn; j++ {
			src := b[(j0+j)*cs+k0 : (j0+j)*cs+k1]
			o := j
			for _, v := range src {
				dst[o] = v
				o += nr
			}
		}
	} else {
		for j := 0; j < jn; j++ {
			o := j
			for kk := k0; kk < k1; kk++ {
				dst[o] = b[kk*rs+(j0+j)*cs]
				o += nr
			}
		}
	}
	for j := jn; j < nr; j++ {
		o := j
		for kk := k0; kk < k1; kk++ {
			dst[o] = 0
			o += nr
		}
	}
}

// packAPanels packs A row panels [p0, p1) (units of gemmMR rows, edge
// rows zero-padded past m) over k range [k0, k1) into dst, reading
// A[i][kk] = a[i*rs + kk*cs].
func packAPanels(dst []Elem, a []Elem, rs, cs, m, p0, p1, k0, k1 int) {
	kc := k1 - k0
	mr := gemmMR
	for p := p0; p < p1; p++ {
		i0 := p * mr
		pan := dst[(p-p0)*mr*kc : (p-p0+1)*mr*kc]
		rows := m - i0
		if rows >= mr && cs == 1 {
			// Full panel of row-major A: interleave its mr contiguous
			// source rows.
			packCols(pan, a[i0*rs+k0:], rs, kc, mr)
			continue
		}
		if rows >= mr && rs == 1 {
			// Full panel of a stored transpose (aᵀ·b): the mr panel
			// rows are contiguous in the source at each k.
			packRows(pan, a[k0*cs+i0:], cs, kc, mr)
			continue
		}
		if rows > mr {
			rows = mr
		}
		for kk := k0; kk < k1; kk++ {
			o := (kk - k0) * mr
			for r := 0; r < rows; r++ {
				pan[o+r] = a[(i0+r)*rs+kk*cs]
			}
			for r := rows; r < mr; r++ {
				pan[o+r] = 0
			}
		}
	}
}

// microKernel computes (or accumulates) one full MR×NR tile from packed
// panels, selecting the widest kernel the dispatch enabled.
func microKernel(c []Elem, ldc int, a, b []Elem, kc int, add bool) {
	switch gemmTier {
	case tierAVX512:
		gemmKernelAsm512(&c[0], ldc, &a[0], &b[0], kc, add, gemmMR, gemmNR)
	case tierAVX2:
		gemmKernelAsm(&c[0], ldc, &a[0], &b[0], kc, add)
	default:
		gemmKernelGo(c, ldc, a, b, kc, add)
	}
}

// B panel pack states for the cooperative first-touch protocol.
const (
	bPanelEmpty uint32 = iota
	bPanelPacking
	bPanelReady
)

// gemmRun is the pooled per-call state of one gemm invocation. The
// parallel row region passes it to ForGrainRanger as a Ranger, so a
// steady-state training iteration's matmuls perform no heap allocation:
// the run state, the pack buffers, the per-task A buffers and the panel
// state array all come from pools.
type gemmRun struct {
	c        []Elem
	ldc      int
	m, n, k  int
	a        []Elem
	ars, acs int
	b        []Elem
	brs, bcs int

	// Per-(jc, pc) block state, set by gemm before each parallel phase.
	jc, nc  int
	pc, kc  int
	bbuf    []Elem
	panVolB int
	nPanB   int
	accum   bool
	// bState[q] tracks the cooperative pack of B panel q: empty →
	// packing → ready. Retained across pool cycles (it holds no operand
	// references) so steady-state runs do not reallocate it.
	bState []atomic.Uint32
}

var gemmRunPool = sync.Pool{New: func() any { return new(gemmRun) }}

// panel returns packed B panel q of the current block, packing it first
// if this task is the first to touch it. Tasks that lose the claim race
// yield until the winner finishes — the pack is bounded work already
// running on another goroutine, so this cannot deadlock.
func (g *gemmRun) panel(q int) []Elem {
	st := &g.bState[q]
	if st.Load() != bPanelReady {
		g.fillPanel(q, st)
	}
	return g.bbuf[q*g.panVolB : (q+1)*g.panVolB]
}

func (g *gemmRun) fillPanel(q int, st *atomic.Uint32) {
	if st.CompareAndSwap(bPanelEmpty, bPanelPacking) {
		packBStrided(g.bbuf[q*g.panVolB:(q+1)*g.panVolB], g.b, g.brs, g.bcs, g.n, g.pc, g.pc+g.kc, g.jc+q*gemmNR, gemmNR)
		// Release: the atomic store publishes the packed bytes to every
		// task that observes bPanelReady.
		st.Store(bPanelReady)
		return
	}
	for st.Load() != bPanelReady {
		runtime.Gosched()
	}
}

// Range implements parallel.Ranger over A row panels [ps, pe) of the
// current block: pack an MC-bounded group of panels, then stream the
// packed B panels through the micro-kernel. Tasks start their B-panel
// walk at an offset derived from ps so concurrent tasks first-touch
// disjoint panels; the C tiles a task writes are its own regardless of
// panel order, so the rotation cannot change results.
func (g *gemmRun) Range(ps, pe int) {
	kc := g.kc
	mr, nrFull := gemmMR, gemmNR
	mcPan := gemmMC / mr
	span := pe - ps
	if span > mcPan {
		span = mcPan
	}
	abufT := Get(span * mr * kc)
	abuf := abufT.Data
	var tile [gemmMRMax * gemmNRMax]Elem
	qoff := ps % g.nPanB
	for bp := ps; bp < pe; bp += mcPan {
		bpe := bp + mcPan
		if bpe > pe {
			bpe = pe
		}
		packAPanels(abuf, g.a, g.ars, g.acs, g.m, bp, bpe, g.pc, g.pc+kc)
		for qi := 0; qi < g.nPanB; qi++ {
			q := qi + qoff
			if q >= g.nPanB {
				q -= g.nPanB
			}
			j0 := g.jc + q*nrFull
			nr := g.n - j0
			if nr > nrFull {
				nr = nrFull
			}
			bpan := g.panel(q)
			for ip := bp; ip < bpe; ip++ {
				i0 := ip * mr
				rows := g.m - i0
				if rows > mr {
					rows = mr
				}
				apan := abuf[(ip-bp)*mr*kc : (ip-bp+1)*mr*kc]
				if gemmTier == tierAVX512 {
					// The AVX-512 kernel masks ragged edges natively.
					gemmKernelAsm512(&g.c[i0*g.ldc+j0], g.ldc, &apan[0], &bpan[0], kc, g.accum, rows, nr)
					continue
				}
				if rows == mr && nr == nrFull {
					microKernel(g.c[i0*g.ldc+j0:], g.ldc, apan, bpan, kc, g.accum)
					continue
				}
				// Edge tile: full-size kernel into the stack tile
				// (packing zero-padded the operands), then merge the
				// valid region.
				microKernel(tile[:mr*nrFull], nrFull, apan, bpan, kc, false)
				for r := 0; r < rows; r++ {
					crow := g.c[(i0+r)*g.ldc+j0 : (i0+r)*g.ldc+j0+nr]
					trow := tile[r*nrFull : r*nrFull+nr]
					if g.accum {
						for j, v := range trow {
							crow[j] += v
						}
					} else {
						copy(crow, trow)
					}
				}
			}
		}
	}
	Put(abufT)
}

// gemm computes C (+)= A·B over strided views: C is row-major (ldc),
// A[i][kk] = a[i*ars + kk*acs] and B[kk][j] = b[kk*brs + j*bcs].
func gemm(c []Elem, ldc, m, n, k int, a []Elem, ars, acs int, b []Elem, brs, bcs int, add bool) {
	g := gemmRunPool.Get().(*gemmRun)
	g.c, g.ldc, g.m, g.n, g.k = c, ldc, m, n, k
	g.a, g.ars, g.acs = a, ars, acs
	g.b, g.brs, g.bcs = b, brs, bcs

	nPanA := (m + gemmMR - 1) / gemmMR
	bbufCols := n
	if bbufCols > gemmNC {
		bbufCols = gemmNC
	}
	bPanMax := (bbufCols + gemmNR - 1) / gemmNR
	kcMax := k
	if kcMax > gemmKC {
		kcMax = gemmKC
	}
	bbufT := Get(bPanMax * gemmNR * kcMax)
	g.bbuf = bbufT.Data
	if cap(g.bState) < bPanMax {
		g.bState = make([]atomic.Uint32, bPanMax)
	}
	g.bState = g.bState[:bPanMax]

	for jc := 0; jc < n; jc += gemmNC {
		nc := n - jc
		if nc > gemmNC {
			nc = gemmNC
		}
		g.jc, g.nc = jc, nc
		g.nPanB = (nc + gemmNR - 1) / gemmNR
		for pc := 0; pc < k; pc += gemmKC {
			kc := k - pc
			if kc > gemmKC {
				kc = gemmKC
			}
			g.pc, g.kc = pc, kc
			g.panVolB = kc * gemmNR
			// No task from the previous block can still be running here
			// (ForGrainRanger returns only when the region completes),
			// so the plain reset cannot race with panel claims.
			for q := 0; q < g.nPanB; q++ {
				g.bState[q].Store(bPanelEmpty)
			}
			g.accum = add || pc > 0
			// Row split: units of MR panels, at least matMulGrain
			// multiply-adds per task. B panels are packed cooperatively
			// by the same tasks on first touch.
			grain := matMulGrain / (gemmMR * kc * nc)
			if grain < 1 {
				grain = 1
			}
			parallel.ForGrainRanger(nPanA, grain, g)
		}
	}
	Put(bbufT)
	// Drop operand references before pooling; bState is retained so the
	// steady state does not reallocate it.
	g.c, g.a, g.b, g.bbuf = nil, nil, nil, nil
	gemmRunPool.Put(g)
}
