package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mdgan/internal/parallel"
)

// TestSkinnyStaysInBounds runs the skinny kernels on operands and a C
// block that each end where a guard page begins (guardedWindow), with C
// bracketed above and on both sides by sentinels: a load or store past
// the end of an array faults, a load of C without add reads a NaN, and
// a store outside the m×n block moves a sentinel. For a·b and a·bᵀ, k
// covers every remainder class of the dot kernel's vector step
// (including k below one vector — the 10-wide class head's input
// gradient), n every ragged strip and the odd column of a column pair,
// and m one, two and three row blocks, ragged and full, and both sides
// of each product's cut-over (36 for a·bᵀ; 64, a ragged sixth block,
// for a·b). For the weight gradient aᵀ·b — x, the
// gradient and dW each against a guard page — m is ragged against the
// 12-row block, and k runs from one row to one past its cut-over.
func TestSkinnyStaysInBounds(t *testing.T) {
	if !gemmTierAvailable(tierAVX512) {
		t.Skipf("no AVX-512 kernels on this build/CPU (%s)", GemmKernel())
	}
	const sentinel = 12345.5
	lanes, strip := gemmSkinnyStrip/2, gemmSkinnyStrip
	rng := rand.New(rand.NewSource(41))
	operand := func(t *testing.T, size int) []Elem {
		w := guardedWindow(t, size)
		for i := range w {
			w[i] = Elem(rng.NormFloat64())
		}
		return w
	}
	pairsM := []int{1, 7, 10, gemmSkinnyM, 13, 20, 24, gemmSkinnyMaxPairs, gemmSkinnyMaxPairs + 1}
	stripsM := append(pairsM, gemmSkinnyMaxStrips-1, gemmSkinnyMaxStrips, gemmSkinnyMaxStrips+1)
	dotK := []int{1, 10, lanes - 1, lanes, 2*lanes + 1, 3*lanes - 1}
	for _, kc := range []struct {
		name       string
		kind       int
		ms, ks, ns []int
	}{
		{"t2=false", skinnyStrips, stripsM, dotK, []int{1, 10, 11, strip - 1, strip + 1}},
		{"t2=true", skinnyPairs, pairsM, dotK, []int{1, 10, 11, strip - 1, strip + 1}},
		{"t1", skinnyBlocks, []int{1, gemmSkinnyM + 1, 2*gemmSkinnyM + 5}, []int{1, 10, 20, gemmSkinnyMaxK, gemmSkinnyMaxK + 1}, []int{1, 10, strip - 1, strip + 1}},
	} {
		for _, m := range kc.ms {
			for _, k := range kc.ks {
				for _, n := range kc.ns {
					for _, add := range []bool{false, true} {
						t.Run(fmt.Sprintf("%s/add=%v/%dx%dx%d", kc.name, add, m, k, n), func(t *testing.T) {
							a, b := operand(t, m*k), operand(t, k*n)
							// A sentinel row, then m rows of sentinel | block
							// row | sentinel — less the last sentinel, so the
							// block's last element abuts the guard page.
							ldc := n + 2
							cbuf := guardedWindow(t, (m+1)*ldc-1)
							for i := range cbuf {
								cbuf[i] = sentinel
							}
							c := cbuf[ldc+1:]
							want := make([]float64, m*n)
							for i := 0; i < m; i++ {
								for j := 0; j < n; j++ {
									c[i*ldc+j] = Elem(math.NaN())
									if add {
										c[i*ldc+j] = Elem(rng.NormFloat64())
										want[i*n+j] = float64(c[i*ldc+j])
									}
									for kk := 0; kk < k; kk++ {
										av, bv := a[i*k+kk], b[kk*n+j]
										switch kc.kind {
										case skinnyPairs:
											bv = b[j*k+kk]
										case skinnyBlocks:
											av = a[kk*m+i]
										}
										want[i*n+j] += float64(av) * float64(bv)
									}
								}
							}
							gemmSkinny(c, ldc, m, n, k, a, b, kc.kind, add)
							tol := Tol(1e-12, 2e-4) * float64(k)
							for o, v := range cbuf {
								i, j := o/ldc-1, o%ldc-1
								if i < 0 || j < 0 || j == n {
									if v != sentinel {
										t.Fatalf("sentinel at C[%d][%d] overwritten with %v", i, j, v)
									}
								} else if w := want[i*n+j]; !(math.Abs(float64(v)-w) <= tol) {
									t.Fatalf("C[%d][%d] = %v, want %v", i, j, v, w)
								}
							}
						})
					}
				}
			}
		}
	}
}

// skinnyBatches are the batch-dimension sizes the reference checks walk
// up to a cut-over: every row count of the first block and the first
// past it, then both sides of each later block boundary up to the first
// size past cut.
func skinnyBatches(cut int) []int {
	var bs []int
	for b := 1; b <= gemmSkinnyM+1; b++ {
		bs = append(bs, b)
	}
	for _, b := range []int{20, 2*gemmSkinnyM - 1, 2 * gemmSkinnyM, 2*gemmSkinnyM + 1, cut - 1, cut, cut + 1} {
		if b > bs[len(bs)-1] {
			bs = append(bs, b)
		}
	}
	return bs
}

// TestSkinnyMatchesReference walks the batch dimension across the
// skinny cut-overs at the PaperMLP layer shapes and two ragged ones,
// for the six entry points that can take the skinny path, under every
// kernel tier: the left operand's row count for a·b (every count of the
// first block, each later block boundary, gemmSkinnyMaxStrips±1) and
// a·bᵀ (the same up to gemmSkinnyMaxPairs+1) and k for aᵀ·b (the same
// walk up to gemmSkinnyMaxK+1). The four widest layers take a handful
// of sizes past the first block and both sides of the a·bᵀ cut instead
// of the whole walk, to keep the reference affordable under -race. Both
// sides of a cut must agree with the reference, whichever path a tier
// dispatches to.
func TestSkinnyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	type layer struct {
		k, n             int
		ms, msT2         []int   // row counts walked for a·b and a·bᵀ
		a, b, bt, c      *Tensor // max(ms)-row operands; products use row prefixes
		want, wantT2     *Tensor
		wantAdd, wantT2A *Tensor
		// aᵀ·b: x is (batch, k) and g (batch, n) for each batch size,
		// dW (k, n).
		batches  []int
		x, g, dw *Tensor
		wantT1   []*Tensor
	}
	var layers []*layer
	for _, kn := range [][2]int{{100, 512}, {512, 512}, {512, 784}, {784, 512}, {512, 10}, {45, 37}, {301, 19}} {
		l := &layer{k: kn[0], n: kn[1]}
		l.ms, l.msT2 = skinnyBatches(gemmSkinnyMaxStrips), skinnyBatches(gemmSkinnyMaxPairs)
		l.batches = skinnyBatches(gemmSkinnyMaxK)
		if l.k*l.n >= 100*512 {
			l.ms = append(skinnyBatches(0), 20, gemmSkinnyMaxPairs, gemmSkinnyMaxPairs+1)
			l.msT2 = l.ms
			l.batches = []int{1, 10, gemmSkinnyM + 1, 20}
		}
		m, mT2 := l.ms[len(l.ms)-1], l.msT2[len(l.msT2)-1]
		l.a, l.b, l.bt = randTensor(rng, m, l.k), randTensor(rng, l.k, l.n), randTensor(rng, l.n, l.k)
		l.c = randTensor(rng, m, l.n)
		l.want, l.wantT2 = refMatMul(l.a, l.b, false, false), refMatMul(rowPrefix(l.a, mT2), l.bt, false, true)
		l.wantAdd, l.wantT2A = l.c.Clone(), rowPrefix(l.c, mT2).Clone()
		l.wantAdd.AddInPlace(l.want)
		l.wantT2A.AddInPlace(l.wantT2)

		bMax := l.batches[len(l.batches)-1]
		l.x, l.g, l.dw = randTensor(rng, bMax, l.k), randTensor(rng, bMax, l.n), randTensor(rng, l.k, l.n)
		for _, b := range l.batches {
			l.wantT1 = append(l.wantT1, refMatMul(rowPrefix(l.x, b), rowPrefix(l.g, b), true, false))
		}
		layers = append(layers, l)
	}
	kernelVariants(t, func(t *testing.T) {
		for _, l := range layers {
			tol := Tol(1e-12, 2e-4) * float64(l.k)
			for _, c := range []struct {
				name string
				run  func(out, x, y *Tensor)
				ms   []int
				b    *Tensor
				add  bool
				want *Tensor
			}{
				{"MatMulInto", MatMulInto, l.ms, l.b, false, l.want},
				{"MatMulAdd", MatMulAdd, l.ms, l.b, true, l.wantAdd},
				{"MatMulT2Into", MatMulT2Into, l.msT2, l.bt, false, l.wantT2},
				{"MatMulT2Add", MatMulT2Add, l.msT2, l.bt, true, l.wantT2A},
			} {
				for _, m := range c.ms {
					got := New(m, l.n)
					if c.add {
						copy(got.Data, l.c.Data)
					}
					c.run(got, rowPrefix(l.a, m), c.b)
					if !got.Equal(rowPrefix(c.want, m), tol) {
						t.Fatalf("%s %dx%dx%d: mismatch", c.name, m, l.k, l.n)
					}
				}
			}
			for i, b := range l.batches {
				x, g := rowPrefix(l.x, b), rowPrefix(l.g, b)
				tol := Tol(1e-12, 2e-4) * float64(b)
				got := New(l.k, l.n)
				MatMulT1Into(got, x, g)
				if !got.Equal(l.wantT1[i], tol) {
					t.Fatalf("MatMulT1Into %dx%dx%d: mismatch", l.k, b, l.n)
				}
				got.CopyFrom(l.dw)
				MatMulT1Add(got, x, g)
				if !got.Equal(Add(l.dw, l.wantT1[i]), tol) {
					t.Fatalf("MatMulT1Add %dx%dx%d: mismatch", l.k, b, l.n)
				}
			}
		}
	})
}

// rowPrefix views the first m rows of a rank-2 tensor.
func rowPrefix(x *Tensor, m int) *Tensor { return FromSlice(x.Data[:m*x.Dim(1)], m, x.Dim(1)) }

// TestSkinnySteadyStateAllocs pins the skinny path's per-call state to
// the pools: the run state, the transposed-A scratch and a row block's
// x scratch are recycled, so a warmed-up Dense forward, input-gradient
// or weight-gradient product at the paper's batch — or at two of them
// stacked — allocates nothing, inline or fanned out over four
// processors.
func TestSkinnySteadyStateAllocs(t *testing.T) {
	if !gemmSkinnyOK(20, gemmSkinnyMaxPairs) || !gemmSkinnyOK(20, gemmSkinnyMaxK) {
		t.Skipf("skinny path not live on this tier (%s)", GemmKernel())
	}
	prevProcs := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		parallel.SetMaxProcs(0)
	}()
	rng := rand.New(rand.NewSource(47))
	budget := 0.0
	if raceEnabled {
		budget = 8 // the race-mode sync.Pool drops entries at random
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		parallel.SetMaxProcs(procs)
		for _, m := range []int{10, 20} {
			x, w := randTensor(rng, m, 784), randTensor(rng, 784, 512)
			out, dx, dw := New(m, 512), New(m, 784), New(784, 512)
			for _, c := range []struct {
				name string
				run  func()
			}{
				{"MatMulInto", func() { MatMulInto(out, x, w) }},
				{"MatMulT2Into", func() { MatMulT2Into(dx, out, w) }},
				{"MatMulT1Into", func() { MatMulT1Into(dw, x, out) }},
				{"MatMulT1Add", func() { MatMulT1Add(dw, x, out) }},
			} {
				for i := 0; i < 3; i++ {
					c.run() // warm the pools across the worker set
				}
				if allocs := testing.AllocsPerRun(20, c.run); allocs > budget {
					t.Fatalf("%s, batch %d, GOMAXPROCS=%d: steady-state skinny call allocates %v times, budget %v", c.name, m, procs, allocs, budget)
				}
			}
		}
	}
}
