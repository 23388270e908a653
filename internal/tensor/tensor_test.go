package tensor

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if x.Data[2*4+1] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]Elem{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Fatal("Reshape must alias data")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reshape with wrong volume did not panic")
			}
		}()
		x.Reshape(4, 2)
	}()
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]Elem{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 42
	if x.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]Elem{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]Elem{5, 6, 7, 8}, 2, 2)
	if got := Add(a, b).Data; got[0] != 6 || got[3] != 12 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).Data; got[0] != 4 || got[3] != 4 {
		t.Fatalf("Sub = %v", got)
	}
	prod := New(2, 2)
	MulInto(prod, a, b)
	if got := prod.Data; got[0] != 5 || got[3] != 32 {
		t.Fatalf("MulInto = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]Elem{1, 2, 3}, 3)
	a.AddInPlace(FromSlice([]Elem{1, 1, 1}, 3))
	a.ScaleInPlace(2)
	a.AxpyInPlace(-1, FromSlice([]Elem{4, 6, 8}, 3))
	want := []Elem{0, 0, 0}
	for i, v := range a.Data {
		if v != want[i] {
			t.Fatalf("chained in-place ops = %v, want %v", a.Data, want)
		}
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]Elem{1, -2, 3, 4}, 2, 2)
	if x.Sum() != 6 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Max() != 4 {
		t.Fatalf("Max = %v", x.Max())
	}
	if !almostEq(x.Norm2(), math.Sqrt(30), 1e-12) {
		t.Fatalf("Norm2 = %v", x.Norm2())
	}
	sr := x.SumRows()
	if sr.At(0, 0) != 4 || sr.At(0, 1) != 2 {
		t.Fatalf("SumRows = %v", sr.Data)
	}
}

func TestArgMaxRows(t *testing.T) {
	x := FromSlice([]Elem{0.1, 0.9, 0.5, 0.2, 0.3, 0.1}, 2, 3)
	got := x.ArgMaxRows()
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("ArgMaxRows = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	x := FromSlice([]Elem{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Transpose()
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("Transpose shape %v", y.Shape())
	}
	if y.At(0, 1) != 4 || y.At(2, 0) != 3 {
		t.Fatalf("Transpose data %v", y.Data)
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = Elem(rng.NormFloat64())
	}
	return t
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {64, 33, 17}, {130, 70, 50}} {
		a := randTensor(rng, dims[0], dims[1])
		b := randTensor(rng, dims[1], dims[2])
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !got.Equal(want, Tol(1e-9, 1e-3)) {
			t.Fatalf("MatMul mismatch for dims %v", dims)
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randTensor(rng, 9, 6)
	b := randTensor(rng, 9, 7)
	got := MatMulT1(a, b) // aᵀ·b
	want := naiveMatMul(a.Transpose(), b)
	if !got.Equal(want, Tol(1e-9, 1e-3)) {
		t.Fatal("MatMulT1 mismatch")
	}
	c := randTensor(rng, 5, 6)
	d := randTensor(rng, 8, 6)
	got2 := MatMulT2(c, d) // c·dᵀ
	want2 := naiveMatMul(c, d.Transpose())
	if !got2.Equal(want2, Tol(1e-9, 1e-3)) {
		t.Fatal("MatMulT2 mismatch")
	}
}

func TestMatMulAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randTensor(rng, 4, 5)
	b := randTensor(rng, 5, 6)
	out := Full(1, 4, 6)
	MatMulAdd(out, a, b)
	want := Add(naiveMatMul(a, b), Full(1, 4, 6))
	if !out.Equal(want, Tol(1e-9, 1e-4)) {
		t.Fatal("MatMulAdd must accumulate")
	}
}

func TestRowAndSliceRowsAreViews(t *testing.T) {
	x := FromSlice([]Elem{1, 2, 3, 4, 5, 6}, 3, 2)
	r := x.SliceRows(1, 2)
	r.Data[0] = 42
	if r.Dim(0) != 1 || x.At(1, 0) != 42 {
		t.Fatal("a one-row SliceRows must be a view")
	}
	s := x.SliceRows(1, 3)
	if s.Dim(0) != 2 || s.At(0, 0) != 42 || s.At(1, 1) != 6 {
		t.Fatalf("SliceRows wrong: %v", s.Data)
	}
	s.Data[3] = -1
	if x.At(2, 1) != -1 {
		t.Fatal("SliceRows must be a view")
	}
}

func TestConcatAndGather(t *testing.T) {
	c := FromSlice([]Elem{1, 2, 3, 4, 5, 6}, 3, 2)
	g := c.Gather([]int{2, 0})
	if g.At(0, 0) != 5 || g.At(1, 1) != 2 {
		t.Fatalf("Gather = %v", g.Data)
	}
}

func TestAddRowVec(t *testing.T) {
	x := FromSlice([]Elem{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]Elem{10, 20}, 1, 2)
	got := x.AddRowVecInPlace(v)
	want := []Elem{11, 22, 13, 24}
	for i, w := range want {
		if got.Data[i] != w {
			t.Fatalf("AddRowVecInPlace = %v", got.Data)
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randTensor(rng, 3, 5, 2)
	buf := x.AppendBinary(nil)
	if n := int64(len(buf)); n != x.EncodedSize() {
		t.Fatalf("wrote %d bytes, EncodedSize says %d", n, x.EncodedSize())
	}
	var y Tensor
	if _, err := y.ReadFrom(bytes.NewReader(buf)); err != nil {
		t.Fatal(err)
	}
	if !x.Equal(&y, 0) {
		t.Fatal("round trip not bit-exact")
	}
}

func TestSerializationRejectsGarbage(t *testing.T) {
	var y Tensor
	if _, err := y.ReadFrom(bytes.NewReader([]byte{255, 255, 255, 255})); err == nil {
		t.Fatal("expected error on implausible rank")
	}
}

// Property: MatMul is distributive over addition, (a+b)·c == a·c + b·c.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randTensor(rng, m, k)
		b := randTensor(rng, m, k)
		c := randTensor(rng, k, n)
		lhs := MatMul(Add(a, b), c)
		rhs := Add(MatMul(a, c), MatMul(b, c))
		return lhs.Equal(rhs, Tol(1e-9, 1e-4))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialisation round trip is the identity for random tensors.
func TestSerializationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := make([]int, 1+rng.Intn(3))
		for i := range shape {
			shape[i] = 1 + rng.Intn(6)
		}
		x := randTensor(rng, shape...)
		var y Tensor
		if _, err := y.ReadFrom(bytes.NewReader(x.AppendBinary(nil))); err != nil {
			return false
		}
		return x.Equal(&y, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randTensor(rng, 1+rng.Intn(10), 1+rng.Intn(10))
		return x.Transpose().Transpose().Equal(x, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
