// Package linalg implements the small dense linear-algebra routines the
// evaluation metrics need: symmetric eigendecomposition (cyclic Jacobi),
// PSD matrix square roots and sample covariance.
// The Fréchet Inception Distance (FID) used throughout the paper's
// evaluation reduces to trace and sqrtm computations on feature
// covariances, which is exactly what lives here.
package linalg

import (
	"errors"
	"fmt"
	"math"

	"mdgan/internal/tensor"
)

// SymEig computes the eigendecomposition of a symmetric matrix a
// (n, n) using the cyclic Jacobi method. It returns the eigenvalues and
// the matrix of eigenvectors V (columns), such that a = V·diag(vals)·Vᵀ.
// a is not modified.
func SymEig(a *tensor.Tensor) (vals []float64, vecs *tensor.Tensor, err error) {
	n := a.Dim(0)
	if a.Rank() != 2 || a.Dim(1) != n {
		return nil, nil, fmt.Errorf("linalg: SymEig needs square matrix, got %v", a.Shape())
	}
	// Work on a copy.
	m := a.Clone()
	v := tensor.New(n, n)
	for i := 0; i < n; i++ {
		v.Set(1, i, i)
	}
	// Convergence threshold: the off-diagonal mass cannot shrink below
	// the rotation round-off floor, which scales with the square of the
	// storage epsilon and the matrix magnitude — under the f32 build an
	// absolute 1e-22 would never be reached.
	frob2 := 0.0
	for _, x := range m.Data {
		frob2 += float64(x) * float64(x)
	}
	thresh := tensor.Tol(1e-22, 1e-12) * float64(n*n) * (1 + frob2)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < thresh {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				rotate(m, p, q, c, s)
				rotateCols(v, p, q, c, s)
			}
		}
		if sweep == maxSweeps-1 {
			return nil, nil, errors.New("linalg: Jacobi did not converge")
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = m.At(i, i)
	}
	return vals, v, nil
}

// rotate applies the Jacobi rotation J(p,q,c,s) to m on both sides:
// m = Jᵀ m J.
func rotate(m *tensor.Tensor, p, q int, c, s float64) {
	n := m.Dim(0)
	for i := 0; i < n; i++ {
		mip, miq := m.At(i, p), m.At(i, q)
		m.Set(c*mip-s*miq, i, p)
		m.Set(s*mip+c*miq, i, q)
	}
	for i := 0; i < n; i++ {
		mpi, mqi := m.At(p, i), m.At(q, i)
		m.Set(c*mpi-s*mqi, p, i)
		m.Set(s*mpi+c*mqi, q, i)
	}
}

// rotateCols applies the rotation to the eigenvector accumulator
// (columns p and q).
func rotateCols(v *tensor.Tensor, p, q int, c, s float64) {
	n := v.Dim(0)
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(c*vip-s*viq, i, p)
		v.Set(s*vip+c*viq, i, q)
	}
}

// SqrtPSD returns the principal square root of a symmetric positive
// semi-definite matrix: B with B·B = a. Small negative eigenvalues from
// round-off are clamped to zero.
func SqrtPSD(a *tensor.Tensor) (*tensor.Tensor, error) {
	vals, v, err := SymEig(a)
	if err != nil {
		return nil, err
	}
	n := a.Dim(0)
	// B = V diag(sqrt(vals)) Vᵀ
	scaled := tensor.New(n, n) // V * diag(sqrt(vals))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ev := vals[j]
			if ev < 0 {
				ev = 0
			}
			scaled.Set(v.At(i, j)*math.Sqrt(ev), i, j)
		}
	}
	return tensor.MatMulT2(scaled, v), nil
}

// Trace returns the trace of a square matrix.
func Trace(a *tensor.Tensor) float64 {
	n := a.Dim(0)
	s := 0.0
	for i := 0; i < n; i++ {
		s += a.At(i, i)
	}
	return s
}

// MeanCov returns the per-column mean (1, d) and the sample covariance
// (d, d) of a data matrix x (n, d), using the unbiased (n-1)
// normalisation when n > 1.
func MeanCov(x *tensor.Tensor) (mean, cov *tensor.Tensor) {
	n, d := x.Dim(0), x.Dim(1)
	mean = x.SumRows().Scale(1 / float64(n))
	// The centring workspace is pooled and the Gram product runs through
	// the packed GEMM's transposed-A path — MeanCov sits on the FID eval
	// hot loop, once per metrics pass.
	centered := tensor.Get(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			centered.Set(x.At(i, j)-mean.At(0, j), i, j)
		}
	}
	cov = tensor.New(d, d)
	tensor.MatMulT1Into(cov, centered, centered)
	tensor.Put(centered)
	norm := float64(n - 1)
	if n <= 1 {
		norm = 1
	}
	cov.ScaleInPlace(1 / norm)
	return mean, cov
}

// FrechetDistance computes the squared Fréchet distance between two
// Gaussians N(mu1, c1) and N(mu2, c2):
//
//	|mu1-mu2|² + Tr(c1 + c2 − 2·(c1·c2)^{1/2}).
//
// The matrix square root of the (generally non-symmetric) product c1·c2
// is evaluated through the symmetric similarity
// s·c2·s with s = c1^{1/2}, which has the same spectrum, keeping all
// numerics in symmetric PSD territory.
func FrechetDistance(mu1, c1, mu2, c2 *tensor.Tensor) (float64, error) {
	diff := tensor.Sub(mu1, mu2)
	d2 := 0.0
	for _, v := range diff.Data {
		d2 += float64(v) * float64(v)
	}
	s, err := SqrtPSD(c1)
	if err != nil {
		return 0, err
	}
	n := s.Dim(0)
	// s·c2·s via a pooled intermediate instead of two fresh n×n
	// allocations per metrics pass.
	tmp := tensor.Get(n, n)
	tensor.MatMulInto(tmp, s, c2)
	inner := tensor.Get(n, n)
	tensor.MatMulInto(inner, tmp, s)
	tensor.Put(tmp)
	symmetrise(inner)
	root, err := SqrtPSD(inner)
	tensor.Put(inner)
	if err != nil {
		return 0, err
	}
	fd := d2 + Trace(c1) + Trace(c2) - 2*Trace(root)
	if fd < 0 && fd > -1e-6 {
		fd = 0 // round-off
	}
	return fd, nil
}

// symmetrise replaces a with (a + aᵀ)/2 in place to scrub float noise.
func symmetrise(a *tensor.Tensor) {
	n := a.Dim(0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (a.At(i, j) + a.At(j, i)) / 2
			a.Set(v, i, j)
			a.Set(v, j, i)
		}
	}
}
