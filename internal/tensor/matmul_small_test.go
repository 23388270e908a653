package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// smallDims are the m, k and n of the step-1 equivalence tests: 1–3,
// each side of one and two 8- and 16-lane vectors, and past four 8-lane
// vectors (a second column block on f64).
var smallDims = []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33}

var smallKinds = []struct {
	name string
	kind int
}{{"MM", smallMM}, {"T1", smallT1}, {"T2", smallT2}}

// fillSpecial fills x with normal draws, about one in six replaced by a
// zero of random sign and one in fifty by an infinity, and every fifth
// block of period elements by −0: a sum of −0 products must come out +0,
// and one started from a −0 in c must stay −0.
func fillSpecial(rng *rand.Rand, x []Elem, period int) {
	for i := range x {
		switch r := rng.Intn(100); {
		case (i/period)%5 == 3:
			x[i] = Elem(math.Copysign(0, -1))
		case r < 8:
			x[i] = 0
		case r < 16:
			x[i] = Elem(math.Copysign(0, -1))
		case r < 17:
			x[i] = Elem(math.Inf(1))
		case r < 18:
			x[i] = Elem(math.Inf(-1))
		default:
			x[i] = Elem(rng.NormFloat64())
		}
	}
}

// checkSmall runs smallProduct on (c, a, b) against smallLoop on a copy
// of c, bit for bit.
func checkSmall(t *testing.T, what string, c, a, b []Elem, m, k, n, kind int, acc bool) {
	t.Helper()
	want := append([]Elem(nil), c...)
	smallLoop(want, a, b, m, k, n, kind, acc)
	smallProduct(c, a, b, m, k, n, kind, acc)
	sameBits(t, what, c, want)
}

// TestSmallProductsMatchLoops runs dispatch step 1 — MatMul, MatMulT1
// and MatMulT2, storing and accumulating — against its Go loops bit for
// bit under every tier, at every m, k, n of smallDims (past gemmMinWork
// too: the kernels do not care), with signed zeros and infinities in a,
// b and the c accumulated into. On avx512 this takes the lanes-across-n
// kernel, the transposed narrow-n route and MatMulT2's transposed b.
func TestSmallProductsMatchLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	kernelVariants(t, func(t *testing.T) {
		for _, m := range smallDims {
			for _, k := range smallDims {
				for _, n := range smallDims {
					a, b, c := make([]Elem, m*k), make([]Elem, k*n), make([]Elem, m*n)
					fillSpecial(rng, a, k)
					fillSpecial(rng, b, n)
					for _, p := range smallKinds {
						for _, acc := range []bool{false, true} {
							fillSpecial(rng, c, n)
							what := fmt.Sprintf("%s m=%d k=%d n=%d acc=%v", p.name, m, k, n, acc)
							checkSmall(t, what, c, a, b, m, k, n, p.kind, acc)
						}
					}
				}
			}
		}
	})
}

// TestSmallProductsStayInBounds places every operand of step 1 with its
// last element just before a guard page, then with its first just after
// one, at ragged n, ragged m, n ∈ {1, 2} (the narrow route and its
// staged c) and k = 1 (where MatMulT2 and the narrow route skip their
// transposes): a load, gather or store outside an operand faults. The
// results are checked against the Go loops as well.
func TestSmallProductsStayInBounds(t *testing.T) {
	shapes := [][3]int{
		{5, 3, 9}, {7, 1, 17}, {3, 2, 33}, {13, 5, 70}, // ragged n
		{6, 4, 32}, {9, 1, 16}, {33, 2, 8}, // ragged m, whole vectors
		{9, 4, 1}, {33, 7, 1}, {13, 5, 2}, {17, 1, 2}, {3, 1, 2}, {2, 3, 1}, // n ∈ {1, 2}
		{1, 1, 1}, {1, 9, 3}, {4, 1, 1}, // k = 1 and tiny
	}
	rng := rand.New(rand.NewSource(37))
	kernelVariants(t, func(t *testing.T) {
		at := guardedOperands(t, 3, 33*70)
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			for _, p := range smallKinds {
				for _, acc := range []bool{false, true} {
					for _, end := range []bool{true, false} {
						a, b, c := at(0, m*k, end), at(1, k*n, end), at(2, m*n, end)
						fillSpecial(rng, a, k)
						fillSpecial(rng, b, n)
						fillSpecial(rng, c, n)
						what := fmt.Sprintf("%s m=%d k=%d n=%d acc=%v end=%v", p.name, m, k, n, acc, end)
						checkSmall(t, what, c, a, b, m, k, n, p.kind, acc)
					}
				}
			}
		}
	})
}

// TestBiasKernelsMatchLoops runs AddRowVecInPlace and SumRowsAdd against
// their Go loops bit for bit under every tier, at every rows × cols of
// smallDims, with signed zeros and infinities in every operand, each
// operand once against a guard page's start and once against its end.
func TestBiasKernelsMatchLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	kernelVariants(t, func(t *testing.T) {
		at := guardedOperands(t, 2, 33*33)
		for _, r := range smallDims {
			for _, c := range smallDims {
				for _, end := range []bool{true, false} {
					what := fmt.Sprintf("rows=%d cols=%d end=%v", r, c, end)
					x, v := at(0, r*c, end), at(1, c, end)
					fillSpecial(rng, x, c)
					fillSpecial(rng, v, 1)
					want := append([]Elem(nil), x...)
					addRowLoop(want, v, r, c)
					FromSlice(x, r, c).AddRowVecInPlace(FromSlice(v, 1, c))
					sameBits(t, "AddRowVecInPlace "+what, x, want)

					fillSpecial(rng, x, c)
					fillSpecial(rng, v, 1)
					want = append(want[:0], v...)
					sumRowsLoop(want, x, r, c)
					FromSlice(x, r, c).SumRowsAdd(FromSlice(v, 1, c))
					sameBits(t, "SumRowsAdd "+what, v, want)
				}
			}
		}
	})
}

// smallBenchShapes are the step-1 products of a ring-tiny-n8 training
// op (RingMLP, batch 16 and the stacked 32), as op m×k×n.
var smallBenchShapes = []struct {
	name    string
	m, k, n int
}{
	{"T2", 32, 1, 32}, {"T1", 2, 32, 32}, {"MM", 32, 2, 32}, {"T1", 32, 32, 1},
	{"MM", 32, 32, 1}, {"MM", 16, 8, 32}, {"T2", 16, 1, 32}, {"MM", 16, 2, 32},
	{"MM", 16, 32, 1}, {"T2", 16, 32, 2}, {"MM", 16, 32, 2}, {"T2", 16, 2, 32},
	{"T1", 8, 16, 32}, {"T1", 32, 16, 2},
}

// BenchmarkSmallProducts times each step-1 product of smallBenchShapes,
// and the Dense bias passes at 16×32 and 32×32, through the Go loop and
// through the live tier's dispatch (the kernels on avx512), ns/op.
func BenchmarkSmallProducts(b *testing.B) {
	rng := rand.New(rand.NewSource(39))
	randSlice := func(n int) []Elem {
		x := make([]Elem, n)
		for i := range x {
			x[i] = Elem(rng.NormFloat64())
		}
		return x
	}
	kinds := map[string]int{"MM": smallMM, "T1": smallT1, "T2": smallT2}
	for _, s := range smallBenchShapes {
		m, k, n, kind := s.m, s.k, s.n, kinds[s.name]
		x, y, c := randSlice(m*k), randSlice(k*n), randSlice(m*n)
		name := fmt.Sprintf("%s_%dx%dx%d", s.name, m, k, n)
		b.Run(name+"/loop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				smallLoop(c, x, y, m, k, n, kind, false)
			}
		})
		b.Run(name+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				smallProduct(c, x, y, m, k, n, kind, false)
			}
		})
	}
	for _, r := range []int{16, 32} {
		const c = 32
		x, v := FromSlice(randSlice(r*c), r, c), FromSlice(randSlice(c), 1, c)
		name := fmt.Sprintf("%dx%d", r, c)
		b.Run("AddRow_"+name+"/loop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				addRowLoop(x.Data, v.Data, r, c)
			}
		})
		b.Run("AddRow_"+name+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.AddRowVecInPlace(v)
			}
		})
		b.Run("SumRows_"+name+"/loop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sumRowsLoop(v.Data, x.Data, r, c)
			}
		})
		b.Run("SumRows_"+name+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.SumRowsAdd(v)
			}
		})
	}
}
