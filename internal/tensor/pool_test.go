package tensor

import (
	"math/rand"
	"testing"
)

func TestGetPutRoundTrip(t *testing.T) {
	x := Get(3, 5)
	if x.Dim(0) != 3 || x.Dim(1) != 5 || x.Size() != 15 {
		t.Fatalf("Get(3,5) shape %v size %d", x.Shape(), x.Size())
	}
	x.CopyFrom(Full(7, x.Shape()...))
	Put(x)
	y := Get(15)
	if y.Size() != 15 {
		t.Fatalf("Get(15) size %d", y.Size())
	}
	Put(y)
}

func TestGetReusesBuffer(t *testing.T) {
	// sync.Pool may drop entries under GC pressure, so only assert the
	// happy path: an immediate Get after Put of the same size class.
	x := Get(100)
	p := &x.Data[0]
	Put(x)
	y := Get(128) // same power-of-two class as 100
	if &y.Data[0] != p {
		t.Log("pool did not reuse buffer (GC ran?) — not a failure")
	}
	Put(y)
}

func TestGetZeroed(t *testing.T) {
	x := Get(200)
	x.CopyFrom(Full(3, x.Shape()...))
	Put(x)
	y := GetZeroed(200)
	for i, v := range y.Data {
		if v != 0 {
			t.Fatalf("GetZeroed data[%d] = %v", i, v)
		}
	}
	Put(y)
}

func TestPutForeignTensorIsSafe(t *testing.T) {
	Put(nil)
	Put(FromSlice(make([]Elem, 100), 100)) // non-power-of-two cap: dropped
	Put(New(3))                            // below min class: dropped
}

func TestEnsureReusesStorage(t *testing.T) {
	x := New(4, 4)
	y := Ensure(x, 2, 3)
	if y != x {
		t.Fatal("Ensure must reuse sufficient storage")
	}
	if y.Dim(0) != 2 || y.Dim(1) != 3 || y.Size() != 6 {
		t.Fatalf("Ensure shape %v", y.Shape())
	}
	z := Ensure(y, 8, 8)
	if z == y {
		t.Fatal("Ensure must allocate when capacity is insufficient")
	}
	if w := Ensure(nil, 2, 2); w == nil || w.Size() != 4 {
		t.Fatal("Ensure(nil) must allocate")
	}
}

func TestPoolSteadyStateAllocs(t *testing.T) {
	// After warm-up, a Get/Put cycle must not allocate.
	for i := 0; i < 4; i++ {
		Put(Get(1000))
	}
	n := testing.AllocsPerRun(100, func() {
		w := Get(1000)
		w.Data[0] = 1
		Put(w)
	})
	if raceEnabled {
		// The race-mode sync.Pool drops a random share of Puts, so the
		// next Get misses and allocates; no budget below one allocation
		// per cycle holds. Unlike the budgets that scale by a factor,
		// this one is zero, so it is skipped rather than relaxed.
		t.Skipf("race detector: sync.Pool drops Puts at random (%v allocs per cycle)", n)
	}
	if n > 0.5 {
		t.Fatalf("Get/Put allocates %v per cycle, want 0", n)
	}
}

func TestMatMulIntoVariantsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Odd sizes exercise the 4-wide remainder paths; the large case
	// crosses the parallel grain and the column tile.
	for _, dims := range [][3]int{{1, 1, 1}, {3, 2, 5}, {5, 7, 3}, {6, 5, 9}, {33, 65, 517}, {130, 70, 600}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		want := naiveMatMul(a, b)

		out := Full(3, m, n)
		MatMulInto(out, a, b)
		if !out.Equal(want, Tol(1e-9, 1e-3)) {
			t.Fatalf("MatMulInto mismatch for dims %v", dims)
		}

		at := a.Transpose() // (k, m)
		out.CopyFrom(Full(5, out.Shape()...))
		MatMulT1Into(out, at, b)
		if !out.Equal(want, Tol(1e-9, 1e-3)) {
			t.Fatalf("MatMulT1Into mismatch for dims %v", dims)
		}

		bt := b.Transpose() // (n, k)
		out.CopyFrom(Full(-2, out.Shape()...))
		MatMulT2Into(out, a, bt)
		if !out.Equal(want, Tol(1e-9, 1e-3)) {
			t.Fatalf("MatMulT2Into mismatch for dims %v", dims)
		}

		// Accumulating variants: out = 1 + a·b.
		ones := Full(1, m, n)
		wantAcc := Add(want, ones)
		acc := Full(1, m, n)
		MatMulT1Add(acc, at, b)
		if !acc.Equal(wantAcc, Tol(1e-9, 1e-3)) {
			t.Fatalf("MatMulT1Add mismatch for dims %v", dims)
		}
		acc = Full(1, m, n)
		MatMulT2Add(acc, a, bt)
		if !acc.Equal(wantAcc, Tol(1e-9, 1e-3)) {
			t.Fatalf("MatMulT2Add mismatch for dims %v", dims)
		}
	}
}

// TestMatMulSparseDispatchAgainstNaive feeds ReLU-like left operands
// (half zeros) through MatMul, MatMulT1Into, MatMulT2Into and
// MatMulT2Add: the dense kernels must match the naive product within
// tolerance, and the Into variants must overwrite what out held.
func TestMatMulSparseDispatchAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range [][3]int{{5, 7, 3}, {10, 48, 784}, {33, 65, 517}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(rng, m, k)
		for i := range a.Data {
			if rng.Float64() < 0.5 {
				a.Data[i] = 0
			}
		}
		b := randTensor(rng, k, n)
		want := naiveMatMul(a, b)
		if got := MatMul(a, b); !got.Equal(want, Tol(1e-9, 1e-3)) {
			t.Fatalf("sparse MatMul mismatch for dims %v", dims)
		}
		at := a.Transpose()
		out := Full(9, m, n)
		MatMulT1Into(out, at, b)
		if !out.Equal(want, Tol(1e-9, 1e-3)) {
			t.Fatalf("sparse MatMulT1Into mismatch for dims %v", dims)
		}
		bt := b.Transpose()
		out.CopyFrom(Full(-3, out.Shape()...))
		MatMulT2Into(out, a, bt)
		if !out.Equal(want, Tol(1e-9, 1e-3)) {
			t.Fatalf("sparse MatMulT2Into mismatch for dims %v", dims)
		}
		acc := Full(1, m, n)
		MatMulT2Add(acc, a, bt)
		if !acc.Equal(Add(want, Full(1, m, n)), Tol(1e-9, 1e-3)) {
			t.Fatalf("sparse MatMulT2Add mismatch for dims %v", dims)
		}
	}
}

func TestZipIntoAndTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randTensor(rng, 7, 9)
	b := randTensor(rng, 7, 9)
	out := New(7, 9)
	AddInto(out, a, b)
	if !out.Equal(Add(a, b), 0) {
		t.Fatal("AddInto mismatch")
	}
	SubInto(out, a, b)
	if !out.Equal(Sub(a, b), 0) {
		t.Fatal("SubInto mismatch")
	}
	MulInto(out, a, b)
	for i, v := range out.Data {
		if v != a.Data[i]*b.Data[i] {
			t.Fatal("MulInto mismatch")
		}
	}
	tr := New(9, 7)
	TransposeInto(tr, a)
	if !tr.Equal(a.Transpose(), 0) {
		t.Fatal("TransposeInto mismatch")
	}
	v := randTensor(rng, 1, 9)
	inPlace := a.Clone()
	inPlace.AddRowVecInPlace(v)
	for i, x := range inPlace.Data {
		if x != a.Data[i]+v.Data[i%9] {
			t.Fatal("AddRowVecInPlace mismatch")
		}
	}
	bias := New(1, 9)
	a.SumRowsAdd(bias)
	a.SumRowsAdd(bias)
	if !bias.Equal(a.SumRows().Scale(2), Tol(1e-12, 1e-5)) {
		t.Fatal("SumRowsAdd must accumulate row sums")
	}
}
