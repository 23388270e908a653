package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// tanhMaxULP is the bound TestTanhAccuracy pins for the vector kernel,
// in units in the last place of the compiled dtype.
const tanhMaxULP = 2

// ulpDist is the number of representable Elem values between a and b
// (0 when they are equal, ±0 included).
func ulpDist(a, b Elem) uint64 {
	if ElemBytes == 4 {
		oa, ob := ordered32(float32(a)), ordered32(float32(b))
		if oa < ob {
			oa, ob = ob, oa
		}
		return uint64(oa - ob)
	}
	oa, ob := ordered64(float64(a)), ordered64(float64(b))
	if oa < ob {
		oa, ob = ob, oa
	}
	return uint64(oa - ob)
}

// ordered64/ordered32 map a float's bits onto integers that order like
// the floats, with +0 and −0 both at 0.
func ordered64(v float64) int64 {
	b := int64(math.Float64bits(v))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

func ordered32(v float32) int64 {
	b := int32(math.Float32bits(v))
	if b < 0 {
		b = math.MinInt32 - b
	}
	return int64(b)
}

// tanhSpecials are the inputs whose output the kernel must get right by
// construction rather than by approximation: signed zeros, the smallest
// and largest denormals, infinities, NaN, and both sides of each point
// where math.Tanh or the kernel changes formula (0.625), where the
// rounded tanh reaches 1 (19.06 in float64; 9.01 in float32) and where
// math.Tanh stops computing (44.02).
func tanhSpecials() []Elem {
	denormMin, denormMax := math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff)
	if ElemBytes == 4 {
		denormMin, denormMax = math.SmallestNonzeroFloat32, float64(math.Float32frombits(0x007fffff))
	}
	var xs []Elem
	for _, v := range []float64{0, denormMin, denormMax, 1e-300, 1e-30, 1e-8, 0.625, 1, 9.01, 19.06, 44.02, 1e10, math.MaxFloat32, math.Inf(1)} {
		e := Elem(v)
		for _, x := range []Elem{e, nextElem(e, -1), nextElem(e, 1)} {
			xs = append(xs, x, -x)
		}
	}
	return append(xs, Elem(math.NaN()))
}

// nextElem steps one representable value from x towards dir's sign.
func nextElem(x Elem, dir float64) Elem {
	if ElemBytes == 4 {
		return Elem(math.Nextafter32(float32(x), float32(dir)*math.MaxFloat32))
	}
	return Elem(math.Nextafter(float64(x), dir*math.MaxFloat64))
}

// tanhRef is the math.Tanh loop every tier but avx512 runs.
func tanhRef(x Elem) Elem { return Elem(math.Tanh(float64(x))) }

// tanhInputs is TestTanhAccuracy's input set: a sweep of [−25, 25] in
// steps of 2^-12, 10^6 normals at each of four scales, and the specials.
func tanhInputs() []Elem {
	var xs []Elem
	for i := -25 << 12; i <= 25<<12; i++ {
		xs = append(xs, Elem(float64(i)/(1<<12)))
	}
	rng := rand.New(rand.NewSource(53))
	for _, sigma := range []float64{0.01, 0.3, 1, 3} {
		for i := 0; i < 1e6; i++ {
			xs = append(xs, Elem(sigma*rng.NormFloat64()))
		}
	}
	return append(xs, tanhSpecials()...)
}

// TestTanhAccuracy compares the live tanh with the math.Tanh loop under
// every tier: bit for bit where the tier keeps that loop, within
// tanhMaxULP where it takes the vector kernel.
func TestTanhAccuracy(t *testing.T) {
	xs := tanhInputs()
	got := make([]Elem, len(xs))
	kernelVariants(t, func(t *testing.T) {
		bound := uint64(0)
		if elemVecOK() {
			bound = tanhMaxULP
		}
		tanhElems(got, xs)
		worst, at := uint64(0), 0
		for i, x := range xs {
			want := tanhRef(x)
			if math.IsNaN(float64(want)) {
				if !math.IsNaN(float64(got[i])) {
					t.Fatalf("tanh(%v) = %v, want NaN", x, got[i])
				}
				continue
			}
			if d := ulpDist(got[i], want); d > worst {
				worst, at = d, i
			}
		}
		if worst > bound {
			t.Fatalf("tanh(%v) = %v, math.Tanh %v: %d ulp apart, bound %d", xs[at], got[at], tanhRef(xs[at]), worst, bound)
		}
		t.Logf("%s: max %d ulp over %d inputs", GemmKernel(), worst, len(xs))
	})
}

// TestTanhProperties checks, under every tier, what holds exactly:
// odd symmetry bit for bit, |tanh x| ≤ 1, exactly ±1 from the first
// sweep point where the rounded tanh is 1, NaN in → NaN out, and a
// non-decreasing sweep.
func TestTanhProperties(t *testing.T) {
	var sweep []Elem
	for i := -25 << 12; i <= 25<<12; i++ {
		sweep = append(sweep, Elem(float64(i)/(1<<12)))
	}
	xs := append(sweep, tanhSpecials()...)
	got, neg := make([]Elem, len(xs)), make([]Elem, len(xs))
	negx := make([]Elem, len(xs))
	for i, x := range xs {
		negx[i] = -x
	}
	kernelVariants(t, func(t *testing.T) {
		tanhElems(got, xs)
		tanhElems(neg, negx)
		for i, x := range xs {
			y := got[i]
			if math.IsNaN(float64(x)) {
				if !math.IsNaN(float64(y)) {
					t.Fatalf("tanh(NaN) = %v", y)
				}
				continue
			}
			if ElemBytes == 4 && math.Float32bits(float32(neg[i])) != math.Float32bits(float32(-y)) ||
				ElemBytes == 8 && math.Float64bits(float64(neg[i])) != math.Float64bits(float64(-y)) {
				t.Fatalf("tanh(%v) = %v but tanh(%v) = %v", x, y, -x, neg[i])
			}
			if !(math.Abs(float64(y)) <= 1) {
				t.Fatalf("|tanh(%v)| = %v > 1", x, y)
			}
			if tanhRef(x) == 1 && y != 1 {
				t.Fatalf("tanh(%v) = %v, want exactly 1", x, y)
			}
		}
		for i := 1; i < len(sweep); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("tanh(%v) = %v < tanh(%v) = %v", sweep[i], got[i], sweep[i-1], got[i-1])
			}
		}
	})
}

// TestTanhStaysInBounds runs tanh on every length up to two vectors and
// one element, with both operands ending where a guard page begins, out
// of place and in place: a load or store past the last element faults.
func TestTanhStaysInBounds(t *testing.T) {
	lanes := 64 / ElemBytes
	rng := rand.New(rand.NewSource(59))
	kernelVariants(t, func(t *testing.T) {
		for n := 0; n <= 2*lanes+1; n++ {
			src, dst := guardedWindow(t, n), guardedWindow(t, n)
			for i := range src {
				src[i] = Elem(3 * rng.NormFloat64())
			}
			tanhElems(dst, src)
			for i, x := range src {
				if ulpDist(dst[i], tanhRef(x)) > tanhMaxULP {
					t.Fatalf("n=%d: tanh(%v) = %v, want %v", n, x, dst[i], tanhRef(x))
				}
			}
			tanhElems(src, src)
			for i := range src {
				if src[i] != dst[i] {
					t.Fatalf("n=%d: in place, element %d = %v, out of place %v", n, i, src[i], dst[i])
				}
			}
		}
	})
}

// TestTanhAllocs pins a tanh call to zero allocations on every tier.
func TestTanhAllocs(t *testing.T) {
	x := randTensor(rand.New(rand.NewSource(61)), 64, 784)
	out := New(64, 784)
	kernelVariants(t, func(t *testing.T) {
		if allocs := testing.AllocsPerRun(20, func() { TanhInto(out, x) }); allocs != 0 {
			t.Fatalf("TanhInto allocates %v times", allocs)
		}
	})
}

// adamSteps are steps 1–5 of bias correction under two hyper-parameter
// sets: the defaults opt.NewAdam resolves to, and the β1 = 0.5 of GAN
// practice with a larger rate.
func adamSteps() []AdamStep {
	var steps []AdamStep
	for _, c := range []struct{ lr, b1, b2 float64 }{{1e-3, 0.9, 0.999}, {4e-3, 0.5, 0.99}} {
		for t := 1; t <= 5; t++ {
			steps = append(steps, AdamStep{
				B1: c.b1, B2: c.b2, LR: c.lr, Eps: 1e-8,
				IC1: 1 / (1 - math.Pow(c.b1, float64(t))),
				IC2: 1 / (1 - math.Pow(c.b2, float64(t))),
			})
		}
	}
	return steps
}

// adamGrads fills g with a seeded mix of exact zeros, ±1e-30 (whose
// square is far below any moment it meets), ±1e3 and normals scaled
// across twelve decades.
func adamGrads(rng *rand.Rand, g []Elem) {
	for i := range g {
		x := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-8))
		switch rng.Intn(6) {
		case 0:
			x = 0
		case 1:
			x = math.Copysign(1e-30, x)
		case 2:
			x = math.Copysign(1e3, x)
		}
		g[i] = Elem(x)
	}
}

// adamMismatch returns the first index at which the two updates' w, m
// or v differ in any bit, or −1.
func adamMismatch(w, wr []Elem, m, mr, v, vr []float64) int {
	for i := range w {
		if math.Float64bits(float64(w[i])) != math.Float64bits(float64(wr[i])) ||
			math.Float64bits(m[i]) != math.Float64bits(mr[i]) ||
			math.Float64bits(v[i]) != math.Float64bits(vr[i]) {
			return i
		}
	}
	return -1
}

// TestAdamKernelMatchesScalar runs the ten steps of adamSteps, one
// optimiser state carried through, via the live AdamUpdate and via the
// scalar loop, under every tier, and requires w, m and v equal bit for
// bit after each step:
// on the avx512 tier that is the kernel against the rule, on the others
// the dispatch keeping the loop. The lengths cover every tail of one and
// two vectors, plus long runs.
func TestAdamKernelMatchesScalar(t *testing.T) {
	sizes := []int{63, 1000, 12345}
	for n := 0; n <= 17; n++ {
		sizes = append(sizes, n)
	}
	kernelVariants(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(71))
		for _, n := range sizes {
			w, g := make([]Elem, n), make([]Elem, n)
			m, v := make([]float64, n), make([]float64, n)
			for i := range w {
				w[i] = Elem(rng.NormFloat64())
			}
			wr, mr, vr := append([]Elem(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)
			for _, s := range adamSteps() {
				adamGrads(rng, g)
				AdamUpdate(w, g, m, v, s)
				adamScalar(wr, g, mr, vr, s)
				if i := adamMismatch(w, wr, m, mr, v, vr); i >= 0 {
					t.Fatalf("n=%d, %+v, g[%d]=%v: w %v m %v v %v, scalar w %v m %v v %v",
						n, s, i, g[i], w[i], m[i], v[i], wr[i], mr[i], vr[i])
				}
			}
		}
	})
}

// TestAdamStaysInBounds runs AdamUpdate on every length up to two
// vectors and one element with w, g, m and v each ending where a guard
// page begins: a load or store past the last element faults. The result
// must still equal the scalar loop's bit for bit.
func TestAdamStaysInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	s := adamSteps()[2]
	kernelVariants(t, func(t *testing.T) {
		for n := 0; n <= 2*8+1; n++ {
			w, g := guardedWindow(t, n), guardedWindow(t, n)
			m, v := guarded[float64](t, n), guarded[float64](t, n)
			for i := range w {
				w[i], g[i] = Elem(rng.NormFloat64()), Elem(rng.NormFloat64())
				m[i], v[i] = 0.1*rng.NormFloat64(), 0.01*math.Abs(rng.NormFloat64())
			}
			wr, mr, vr := append([]Elem(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)
			AdamUpdate(w, g, m, v, s)
			adamScalar(wr, g, mr, vr, s)
			if i := adamMismatch(w, wr, m, mr, v, vr); i >= 0 {
				t.Fatalf("n=%d: element %d w %v m %v v %v, scalar w %v m %v v %v", n, i, w[i], m[i], v[i], wr[i], mr[i], vr[i])
			}
		}
	})
}

// BenchmarkTanh times tanh over the served generator's output layer
// (batch 64 × 784 pixels) on the live tier and through the math.Tanh
// loop, reporting ns per element. Inputs are normals of σ = 0.3 — nine
// in ten below 0.625, math.Tanh's rational branch, where an untrained
// generator's pre-activations sit — and of σ = 1, half of them on
// math.Tanh's exp branch.
func BenchmarkTanh(b *testing.B) {
	rng := rand.New(rand.NewSource(67))
	for _, sigma := range []float64{0.3, 1} {
		x := randTensor(rng, 64, 784)
		x.ScaleInPlace(sigma)
		out := New(64, 784)
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"kernel", func() { TanhInto(out, x) }},
			{"math.Tanh", func() {
				for i, v := range x.Data {
					out.Data[i] = tanhRef(v)
				}
			}},
		} {
			b.Run(fmt.Sprintf("%s/%s/sigma=%v", c.name, DTypeName, sigma), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(x.Data)), "ns/elem")
			})
		}
	}
}

// elemBits is x's bit pattern in the compiled dtype.
func elemBits(x Elem) uint64 {
	if ElemBytes == 4 {
		return uint64(math.Float32bits(float32(x)))
	}
	return math.Float64bits(float64(x))
}

// sameBits fails t at the first element where got and want differ in
// any bit, NaN payloads and the sign of zero included.
func sameBits(t *testing.T, what string, got, want []Elem) {
	t.Helper()
	for i := range want {
		if elemBits(got[i]) != elemBits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), loop gives %v (%#x)", what, i, got[i], elemBits(got[i]), want[i], elemBits(want[i]))
		}
	}
}

// guardedOperands returns k operands of up to size elements each, placed
// against a guard page: at(i, n, end) is operand i's n-element window
// whose last element lies just before a PROT_NONE page (end) or whose
// first lies just after one.
func guardedOperands(t *testing.T, k, size int) func(i, n int, end bool) []Elem {
	ends, heads := make([][]Elem, k), make([][]Elem, k)
	for i := range ends {
		ends[i], heads[i] = guardedWindow(t, size), guardedHead(t, size)
	}
	return func(i, n int, end bool) []Elem {
		if end {
			return ends[i][size-n:]
		}
		return heads[i][:n:n]
	}
}

// gateSpecials are the rectifier inputs where a sign test can go wrong
// (nn's rectifierSpecials): both zeros, the smallest and largest
// denormals of the compiled dtype, ±1, the largest finite values and
// the infinities; plus a NaN of each sign and a signalling NaN, which a
// multiply by 1 quiets.
func gateSpecials() []Elem {
	denormMin, denormMax := math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff)
	maxFinite := math.MaxFloat64
	nan, snan := Elem(math.NaN()), Elem(math.Float64frombits(0x7ff0000000000001))
	if ElemBytes == 4 {
		denormMin, denormMax = math.SmallestNonzeroFloat32, float64(math.Float32frombits(0x007fffff))
		maxFinite = math.MaxFloat32
		nan, snan = Elem(math.Float32frombits(0x7fc00000)), Elem(math.Float32frombits(0x7f800001))
	}
	var xs []Elem
	for _, v := range []float64{0, denormMin, denormMax, 1, maxFinite, math.Inf(1)} {
		xs = append(xs, Elem(v), -Elem(v))
	}
	return append(xs, nan, -nan, snan)
}

// TestGateMatchesLoop runs Gate on every pair (x, v) of gateSpecials,
// NaN inputs included, at every length up to four float64 vectors and
// one element, for ReLU and the discriminators' slope, against the Go
// loop bit for bit under every tier: out of place, and with v = x as
// LeakyReLU's forward calls it. All three operands end where a guard
// page begins in one run and start where one ends in the other, so a
// load or store outside them faults.
func TestGateMatchesLoop(t *testing.T) {
	sp := gateSpecials()
	var px, pv []Elem
	for _, x := range sp {
		for _, v := range sp {
			px, pv = append(px, x), append(pv, v)
		}
	}
	const maxN = 33
	kernelVariants(t, func(t *testing.T) {
		at := guardedOperands(t, 3, maxN)
		for _, alpha := range []Elem{0, 0.2} {
			for n := 0; n <= maxN; n++ {
				for _, end := range []bool{true, false} {
					dst, v, x := at(0, n, end), at(1, n, end), at(2, n, end)
					ref := make([]Elem, n)
					// Each pair passes through every offset of the window
					// once the window has slid across all of them.
					for off := 0; off == 0 || off < len(px); off += max(n, 1) {
						for i := range x {
							x[i], v[i] = px[(off+i)%len(px)], pv[(off+i)%len(px)]
						}
						what := fmt.Sprintf("alpha=%v n=%d end=%v off=%d", alpha, n, end, off)
						Gate(dst, v, x, alpha)
						gateLoop(ref, v, x, alpha)
						sameBits(t, what, dst, ref)
						Gate(dst, x, x, alpha)
						gateLoop(ref, x, x, alpha)
						sameBits(t, what+" v=x", dst, ref)
					}
				}
			}
		}
	})
}

// TestStride2MatchesLoop runs GatherStride2 and AddStride2 against their
// Go loops bit for bit under every tier, on every grid of rows ∈ {1, 2,
// 3}, m ∈ 1…17 (each tail of an 8- and a 16-lane chunk, and a second
// chunk), lo ∈ {0, 1, 2} with 0–2 trailing zeros, at the tightest
// source and x strides and at wider ones. Every operand sits once with
// its last element just before a guard page and once with its first
// just after one: a load or store outside the elements the loop touches
// faults. The gather's dst starts as a sentinel, so an element it fails
// to write shows; the accumulate's odd x elements include −0, which an
// add of +0 would turn into +0.
func TestStride2MatchesLoop(t *testing.T) {
	const maxLen = 128
	rng := rand.New(rand.NewSource(79))
	kernelVariants(t, func(t *testing.T) {
		at := guardedOperands(t, 2, maxLen)
		for rows := 1; rows <= 3; rows++ {
			for m := 1; m <= 17; m++ {
				for _, end := range []bool{true, false} {
					for _, wide := range []int{0, 3} {
						for lo := 0; lo <= 2; lo++ {
							for zeros := 0; zeros <= 2; zeros++ {
								ds, ss := lo+m+zeros, 2*m-1+wide
								what := fmt.Sprintf("gather rows=%d m=%d lo=%d zeros=%d srcStride=%d end=%v", rows, m, lo, zeros, ss, end)
								src, dst := at(0, (rows-1)*ss+2*m-1, end), at(1, rows*ds, end)
								for i := range src {
									src[i] = Elem(rng.NormFloat64())
								}
								for i := range dst {
									dst[i] = -7777
								}
								ref := make([]Elem, len(dst))
								gatherS2Loop(ref, src, rows, ds, ss, lo, m)
								GatherStride2(dst, src, rows, ds, ss, lo, m)
								sameBits(t, what, dst, ref)
							}
						}
						xs, ss := 2*m-1+wide, m+wide
						what := fmt.Sprintf("accumulate rows=%d m=%d xStride=%d srcStride=%d end=%v", rows, m, xs, ss, end)
						x, src := at(0, (rows-1)*xs+2*m-1, end), at(1, (rows-1)*ss+m, end)
						for i := range x {
							x[i] = Elem(rng.NormFloat64())
							if i%3 == 1 {
								x[i] = Elem(math.Copysign(0, -1))
							}
						}
						for i := range src {
							src[i] = Elem(rng.NormFloat64())
							if i%5 == 2 {
								src[i] = 0
							}
						}
						ref := append([]Elem(nil), x...)
						addS2Loop(ref, src, rows, xs, ss, m)
						AddStride2(x, src, rows, xs, ss, m)
						sameBits(t, what, x, ref)
					}
				}
			}
		}
	})
}
