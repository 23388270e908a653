package tensor

import (
	"fmt"
	"math"

	"mdgan/internal/parallel"
)

// opsGrain is the element count below which element-wise ops run as a
// plain loop; it matches the worker-pool hand-off threshold, and the
// small path avoids even constructing the fan-out closure.
const opsGrain = 4096

// Add returns t + u element-wise as a new tensor.
func Add(t, u *Tensor) *Tensor {
	out := New(t.shape...)
	AddInto(out, t, u)
	return out
}

// Sub returns t - u element-wise as a new tensor.
func Sub(t, u *Tensor) *Tensor {
	out := New(t.shape...)
	SubInto(out, t, u)
	return out
}

// Mul returns t * u element-wise as a new tensor.
func Mul(t, u *Tensor) *Tensor {
	out := New(t.shape...)
	MulInto(out, t, u)
	return out
}

func checkZip(op string, out, t, u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, u.shape))
	}
	if len(out.Data) != len(t.Data) {
		panic(fmt.Sprintf("tensor: %s out volume %d, want %d", op, len(out.Data), len(t.Data)))
	}
}

// AddInto computes out = t + u element-wise into the preallocated out.
func AddInto(out, t, u *Tensor) {
	checkZip("AddInto", out, t, u)
	od, td, ud := out.Data, t.Data, u.Data
	if len(od) < opsGrain {
		for i, v := range td {
			od[i] = v + ud[i]
		}
		return
	}
	parallel.For(len(od), func(s, e int) {
		for i := s; i < e; i++ {
			od[i] = td[i] + ud[i]
		}
	})
}

// SubInto computes out = t - u element-wise into the preallocated out.
func SubInto(out, t, u *Tensor) {
	checkZip("SubInto", out, t, u)
	od, td, ud := out.Data, t.Data, u.Data
	if len(od) < opsGrain {
		for i, v := range td {
			od[i] = v - ud[i]
		}
		return
	}
	parallel.For(len(od), func(s, e int) {
		for i := s; i < e; i++ {
			od[i] = td[i] - ud[i]
		}
	})
}

// MulInto computes out = t * u element-wise into the preallocated out.
func MulInto(out, t, u *Tensor) {
	checkZip("MulInto", out, t, u)
	od, td, ud := out.Data, t.Data, u.Data
	if len(od) < opsGrain {
		for i, v := range td {
			od[i] = v * ud[i]
		}
		return
	}
	parallel.For(len(od), func(s, e int) {
		for i := s; i < e; i++ {
			od[i] = td[i] * ud[i]
		}
	})
}

// AddInPlace sets t += u.
func (t *Tensor) AddInPlace(u *Tensor) *Tensor {
	if len(t.Data) != len(u.Data) {
		panic("tensor: AddInPlace volume mismatch")
	}
	td, ud := t.Data, u.Data
	if len(td) < opsGrain {
		for i, v := range ud {
			td[i] += v
		}
		return t
	}
	parallel.For(len(td), func(s, e int) {
		for i := s; i < e; i++ {
			td[i] += ud[i]
		}
	})
	return t
}

// Scale returns t * s as a new tensor.
func (t *Tensor) Scale(s float64) *Tensor {
	out := New(t.shape...)
	e := Elem(s)
	for i, v := range t.Data {
		out.Data[i] = v * e
	}
	return out
}

// ScaleInPlace sets t *= s.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	e := Elem(s)
	for i := range t.Data {
		t.Data[i] *= e
	}
	return t
}

// AxpyInPlace sets t += alpha*u (BLAS axpy).
func (t *Tensor) AxpyInPlace(alpha float64, u *Tensor) *Tensor {
	if len(t.Data) != len(u.Data) {
		panic("tensor: AxpyInPlace volume mismatch")
	}
	a := Elem(alpha)
	for i := range t.Data {
		t.Data[i] += a * u.Data[i]
	}
	return t
}

// Apply returns f applied element-wise as a new tensor.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	out := New(t.shape...)
	ApplyInto(out, t, f)
	return out
}

// ApplyInto computes out = f(t) element-wise into the preallocated out.
// f operates in float64 regardless of the compiled Elem (transcendental
// closures come from package math); the result rounds to Elem on store.
func ApplyInto(out, t *Tensor, f func(float64) float64) {
	if len(out.Data) != len(t.Data) {
		panic("tensor: ApplyInto volume mismatch")
	}
	od, td := out.Data, t.Data
	if len(od) < opsGrain {
		for i, v := range td {
			od[i] = Elem(f(float64(v)))
		}
		return
	}
	parallel.For(len(od), func(s, e int) {
		for i := s; i < e; i++ {
			od[i] = Elem(f(float64(td[i])))
		}
	})
}

// Sum returns the sum of all elements, accumulated in float64
// regardless of the compiled Elem.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.Data)) }

// Max returns the maximum element.
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.Data {
		if float64(v) > m {
			m = float64(v)
		}
	}
	return m
}

// Min returns the minimum element.
func (t *Tensor) Min() float64 {
	m := math.Inf(1)
	for _, v := range t.Data {
		if float64(v) < m {
			m = float64(v)
		}
	}
	return m
}

// Norm2 returns the Euclidean norm of the flattened tensor, accumulated
// in float64 regardless of the compiled Elem.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// SumRows reduces a rank-2 tensor (r, c) over its rows, returning a
// (1, c) tensor: out[j] = Σ_i t[i,j].
func (t *Tensor) SumRows() *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: SumRows requires rank-2 tensor")
	}
	r, c := t.shape[0], t.shape[1]
	out := New(1, c)
	for i := 0; i < r; i++ {
		row := t.Data[i*c : (i+1)*c]
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// SumRowsAdd accumulates the row reduction of a rank-2 tensor (r, c)
// into out (1, c): out[j] += Σ_i t[i,j], rows in ascending order on
// every tier. It is the shape of a bias gradient update.
func (t *Tensor) SumRowsAdd(out *Tensor) {
	if len(t.shape) != 2 {
		panic("tensor: SumRowsAdd requires rank-2 tensor")
	}
	r, c := t.shape[0], t.shape[1]
	if len(out.Data) != c {
		panic("tensor: SumRowsAdd out volume mismatch")
	}
	if r > 0 && c > 0 && elemVecOK() {
		sumRowsAsm512(&out.Data[0], &t.Data[:r*c][0], r, c)
		return
	}
	sumRowsLoop(out.Data, t.Data, r, c)
}

// sumRowsLoop is SumRowsAdd's Go loop; sumRowsAsm512 adds in its order.
func sumRowsLoop(od, x []Elem, r, c int) {
	for i := 0; i < r; i++ {
		row := x[i*c : (i+1)*c]
		for j, v := range row {
			od[j] += v
		}
	}
}

// AddRowVec adds a (1, c) row vector to every row of a (r, c) tensor,
// returning a new tensor.
func AddRowVec(t, v *Tensor) *Tensor {
	out := New(t.shape...)
	out.CopyFrom(t)
	return out.AddRowVecInPlace(v)
}

// AddRowVecInPlace adds a (1, c) row vector to every row of a (r, c)
// tensor in place (the bias term of a Dense layer). Rows narrower than
// two vectors that are not whole vectors take addRowNarrowAsm512 on
// the avx512 tier (matmul_amd64.h has why); every path adds the same.
func (t *Tensor) AddRowVecInPlace(v *Tensor) *Tensor {
	if len(t.shape) != 2 || len(v.shape) != 2 || v.shape[0] != 1 || v.shape[1] != t.shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVecInPlace shapes %v %v", t.shape, v.shape))
	}
	r, c := t.shape[0], t.shape[1]
	if r > 0 && c > 0 && elemVecOK() {
		if lanes := 64 / ElemBytes; c%lanes != 0 && c <= 2*lanes {
			addRowNarrowAsm512(&t.Data[:r*c][0], &v.Data[:c][0], r*c, c)
		} else {
			addRowAsm512(&t.Data[:r*c][0], &v.Data[:c][0], r, c)
		}
		return t
	}
	addRowLoop(t.Data, v.Data, r, c)
	return t
}

// addRowLoop is AddRowVecInPlace's Go loop; addRowAsm512 adds as it does.
func addRowLoop(x, vd []Elem, r, c int) {
	for i := 0; i < r; i++ {
		row := x[i*c : (i+1)*c]
		for j := range row {
			row[j] += vd[j]
		}
	}
}

// ArgMaxRows returns, for a (r, c) tensor, the column index of the
// maximum entry of each row.
func (t *Tensor) ArgMaxRows() []int {
	if len(t.shape) != 2 {
		panic("tensor: ArgMaxRows requires rank-2 tensor")
	}
	r, c := t.shape[0], t.shape[1]
	out := make([]int, r)
	for i := 0; i < r; i++ {
		best, bi := math.Inf(-1), 0
		for j, v := range t.Data[i*c : (i+1)*c] {
			if float64(v) > best {
				best, bi = float64(v), j
			}
		}
		out[i] = bi
	}
	return out
}

// Transpose returns the transpose of a rank-2 tensor as a new tensor.
func (t *Tensor) Transpose() *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Transpose requires rank-2 tensor")
	}
	out := New(t.shape[1], t.shape[0])
	TransposeInto(out, t)
	return out
}

// TransposeInto writes the transpose of the rank-2 tensor t into the
// preallocated out (c, r).
func TransposeInto(out, t *Tensor) {
	if len(t.shape) != 2 {
		panic("tensor: TransposeInto requires rank-2 tensor")
	}
	r, c := t.shape[0], t.shape[1]
	if len(out.shape) != 2 || out.shape[0] != c || out.shape[1] != r {
		panic(fmt.Sprintf("tensor: TransposeInto out shape %v, want (%d,%d)", out.shape, c, r))
	}
	od, td := out.Data, t.Data
	for i := 0; i < r; i++ {
		row := td[i*c : (i+1)*c]
		for j, v := range row {
			od[j*r+i] = v
		}
	}
}

// Dot returns the inner product of two tensors of equal volume,
// accumulated in float64 regardless of the compiled Elem.
func Dot(t, u *Tensor) float64 {
	if len(t.Data) != len(u.Data) {
		panic("tensor: Dot volume mismatch")
	}
	s := 0.0
	for i, v := range t.Data {
		s += float64(v) * float64(u.Data[i])
	}
	return s
}
