package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestSkinnyStaysInBounds runs the skinny kernels on operands and a C
// block that each end where a guard page begins (guardedWindow), with C
// bracketed above and on both sides by sentinels: a load or store past
// the end of an array faults, a load of C without add reads a NaN, and
// a store outside the m×n block moves a sentinel. k covers every
// remainder class of the dot kernel's vector step (including k below
// one vector — the 10-wide class head's input gradient), n every ragged
// strip and the odd column of a column pair.
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
	for _, t2 := range []bool{false, true} {
		for _, m := range []int{1, 7, 10, gemmSkinnyM} {
			for _, k := range []int{1, 10, lanes - 1, lanes, 2*lanes + 1, 3*lanes - 1} {
				for _, n := range []int{1, 10, 11, strip - 1, strip + 1} {
					for _, add := range []bool{false, true} {
						t.Run(fmt.Sprintf("t2=%v/add=%v/%dx%dx%d", t2, add, m, k, n), func(t *testing.T) {
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
										bv := b[kk*n+j]
										if t2 {
											bv = b[j*k+kk]
										}
										want[i*n+j] += float64(a[i*k+kk]) * float64(bv)
									}
								}
							}
							gemmSkinny(c, ldc, m, n, k, a, b, t2, add)
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

// TestSkinnyMatchesReference walks the left operand's row count across
// the skinny cut-over (1 … gemmSkinnyM+1) at the PaperMLP layer shapes
// and two ragged ones, for the four entry points that can take the
// skinny path, under every kernel tier: both sides of the cut must
// agree with the reference, whichever path a tier dispatches to.
func TestSkinnyMatchesReference(t *testing.T) {
	const mMax = gemmSkinnyM + 1
	rng := rand.New(rand.NewSource(43))
	type layer struct {
		k, n             int
		a, b, bt, c      *Tensor // mMax-row operands; products use row prefixes
		want, wantT2     *Tensor
		wantAdd, wantT2A *Tensor
	}
	var layers []*layer
	for _, kn := range [][2]int{{100, 512}, {512, 512}, {512, 784}, {784, 512}, {512, 10}, {45, 37}, {301, 19}} {
		l := &layer{k: kn[0], n: kn[1]}
		l.a, l.b, l.bt = randTensor(rng, mMax, l.k), randTensor(rng, l.k, l.n), randTensor(rng, l.n, l.k)
		l.c = randTensor(rng, mMax, l.n)
		l.want, l.wantT2 = refMatMul(l.a, l.b, false, false), refMatMul(l.a, l.bt, false, true)
		l.wantAdd, l.wantT2A = l.c.Clone(), l.c.Clone()
		l.wantAdd.AddInPlace(l.want)
		l.wantT2A.AddInPlace(l.wantT2)
		layers = append(layers, l)
	}
	rows := func(x *Tensor, m int) *Tensor { return FromSlice(x.Data[:m*x.Dim(1)], m, x.Dim(1)) }
	kernelVariants(t, func(t *testing.T) {
		for _, l := range layers {
			tol := Tol(1e-12, 2e-4) * float64(l.k)
			for m := 1; m <= mMax; m++ {
				a := rows(l.a, m)
				for _, c := range []struct {
					name string
					run  func(out, x, y *Tensor)
					b    *Tensor
					add  bool
					want *Tensor
				}{
					{"MatMulInto", MatMulInto, l.b, false, l.want},
					{"MatMulAdd", MatMulAdd, l.b, true, l.wantAdd},
					{"MatMulT2Into", MatMulT2Into, l.bt, false, l.wantT2},
					{"MatMulT2Add", MatMulT2Add, l.bt, true, l.wantT2A},
				} {
					got := New(m, l.n)
					if c.add {
						copy(got.Data, l.c.Data)
					}
					c.run(got, a, c.b)
					if !got.Equal(rows(c.want, m), tol) {
						t.Fatalf("%s %dx%dx%d: mismatch", c.name, m, l.k, l.n)
					}
				}
			}
		}
	})
}

// TestSkinnySteadyStateAllocs pins the skinny path's per-call state to
// the pools: the run state and the transposed-A scratch are recycled, so
// a warmed-up b=10 Dense forward or input-gradient product allocates
// nothing, fanned out or not.
func TestSkinnySteadyStateAllocs(t *testing.T) {
	if !gemmSkinnyOK(10) {
		t.Skipf("skinny path not live on this tier (%s)", GemmKernel())
	}
	rng := rand.New(rand.NewSource(47))
	x, w := randTensor(rng, 10, 784), randTensor(rng, 784, 512)
	out, dx := New(10, 512), New(10, 784)
	budget := 0.0
	if raceEnabled {
		budget = 8 // the race-mode sync.Pool drops entries at random
	}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"MatMulInto", func() { MatMulInto(out, x, w) }},
		{"MatMulT2Into", func() { MatMulT2Into(dx, out, w) }},
	} {
		c.run() // warm the pools
		if allocs := testing.AllocsPerRun(20, c.run); allocs > budget {
			t.Fatalf("%s: steady-state skinny call allocates %v times, budget %v", c.name, allocs, budget)
		}
	}
}
