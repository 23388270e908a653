package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mdgan/internal/tensor"
)

func randSPD(rng *rand.Rand, n int) *tensor.Tensor {
	a := tensor.New(n, n)
	for i := range a.Data {
		a.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	// aᵀa + n·I is symmetric positive definite.
	spd := tensor.MatMulT1(a, a)
	for i := 0; i < n; i++ {
		spd.Set(spd.At(i, i)+float64(n), i, i)
	}
	return spd
}

func TestSymEigReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 10, 20} {
		a := randSPD(rng, n)
		vals, v, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct V diag(vals) Vᵀ.
		vd := tensor.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				vd.Set(v.At(i, j)*vals[j], i, j)
			}
		}
		rec := tensor.MatMulT2(vd, v)
		if !rec.Equal(a, tensor.Tol(1e-8, 1e-3)) {
			t.Fatalf("n=%d: eigendecomposition does not reconstruct input", n)
		}
	}
}

func TestSymEigKnownMatrix(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := tensor.FromSlice([]tensor.Elem{2, 1, 1, 2}, 2, 2)
	vals, _, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Min(vals[0], vals[1]), math.Max(vals[0], vals[1])
	if math.Abs(lo-1) > tensor.Tol(1e-10, 1e-5) || math.Abs(hi-3) > tensor.Tol(1e-10, 1e-5) {
		t.Fatalf("eigenvalues = %v, want {1,3}", vals)
	}
}

func TestSqrtPSDSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 3, 8, 16} {
		a := randSPD(rng, n)
		s, err := SqrtPSD(a)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.MatMul(s, s).Equal(a, tensor.Tol(1e-8, 1e-2)) {
			t.Fatalf("n=%d: sqrt(a)² != a", n)
		}
	}
}

func TestMeanCov(t *testing.T) {
	// Two points (0,0) and (2,2): mean (1,1), cov [[2,2],[2,2]] (n-1 norm).
	x := tensor.FromSlice([]tensor.Elem{0, 0, 2, 2}, 2, 2)
	mean, cov := MeanCov(x)
	if mean.At(0, 0) != 1 || mean.At(0, 1) != 1 {
		t.Fatalf("mean = %v", mean.Data)
	}
	for _, v := range cov.Data {
		if math.Abs(float64(v)-2) > tensor.Tol(1e-12, 1e-6) {
			t.Fatalf("cov = %v", cov.Data)
		}
	}
}

func TestFrechetDistanceIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := randSPD(rng, 5)
	mu := tensor.New(1, 5)
	for i := range mu.Data {
		mu.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	fd, err := FrechetDistance(mu, c, mu.Clone(), c.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fd) > tensor.Tol(1e-6, 1e-2) {
		t.Fatalf("FID(p, p) = %g, want ~0", fd)
	}
}

func TestFrechetDistanceClosedFormSpherical(t *testing.T) {
	// For N(0, I) vs N(m, 4I) in d dims:
	// |m|² + Tr(I + 4I − 2·sqrt(4I)·... ) = |m|² + d(1 + 4 − 2·2) = |m|² + d.
	d := 4
	c1 := tensor.New(d, d)
	c2 := tensor.New(d, d)
	for i := 0; i < d; i++ {
		c1.Set(1, i, i)
		c2.Set(4, i, i)
	}
	mu1 := tensor.New(1, d)
	mu2 := tensor.Full(3, 1, d) // |m|² = 9d
	fd, err := FrechetDistance(mu1, c1, mu2, c2)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(9*d) + float64(d)
	if math.Abs(fd-want) > tensor.Tol(1e-8, 1e-3) {
		t.Fatalf("FID = %g, want %g", fd, want)
	}
}

// Property: Fréchet distance is symmetric and non-negative.
func TestFrechetSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		c1, c2 := randSPD(rng, n), randSPD(rng, n)
		mu1, mu2 := tensor.New(1, n), tensor.New(1, n)
		for i := 0; i < n; i++ {
			mu1.Data[i] = tensor.Elem(rng.NormFloat64())
			mu2.Data[i] = tensor.Elem(rng.NormFloat64())
		}
		ab, err1 := FrechetDistance(mu1, c1, mu2, c2)
		ba, err2 := FrechetDistance(mu2, c2, mu1, c1)
		if err1 != nil || err2 != nil {
			return false
		}
		return ab >= 0 && math.Abs(ab-ba) < tensor.Tol(1e-6, 1e-3)*(1+math.Abs(ab))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
