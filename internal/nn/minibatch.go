package nn

import (
	"fmt"
	"math"
	"math/rand"

	"mdgan/internal/tensor"
)

// MinibatchDiscrimination implements the layer of Salimans et al. (2016)
// used by the paper's discriminators: each sample is compared to every
// other sample of the minibatch through learned projections, so the
// discriminator can detect a generator that collapses to a single mode.
//
// Input x (N, A); learned tensor T (A, B·C); M = x·T viewed (N, B, C);
// o_{i,b} = Σ_{j≠i} exp(−‖M_{i,b,·} − M_{j,b,·}‖₁); output is
// concat(x, o) of shape (N, A+B).
type MinibatchDiscrimination struct {
	A, B, C int
	T       *Param
	x       *tensor.Tensor
	m       *tensor.Tensor
	out     *tensor.Tensor
	dm      *tensor.Tensor
	dx      *tensor.Tensor
	cexp    []float64 // cached exp(−d) per (i, j, b)
}

// NewMinibatchDiscrimination builds the layer with nFeatures input
// features, nKernels comparison kernels (B) of dimension kernelDim (C).
func NewMinibatchDiscrimination(nFeatures, nKernels, kernelDim int, rng *rand.Rand) *MinibatchDiscrimination {
	t := tensor.New(nFeatures, nKernels*kernelDim)
	glorotUniform(t, nFeatures, nKernels*kernelDim, rng)
	return &MinibatchDiscrimination{
		A: nFeatures, B: nKernels, C: kernelDim,
		T: newParam(fmt.Sprintf("mbd%dx%dx%d.T", nFeatures, nKernels, kernelDim), t),
	}
}

// Forward computes the minibatch features and concatenates them to x.
func (l *MinibatchDiscrimination) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.A {
		panic(fmt.Sprintf("nn: MinibatchDiscrimination expects (N, %d), got %v", l.A, x.Shape()))
	}
	n := x.Dim(0)
	l.x = x
	l.m = tensor.Ensure(l.m, n, l.B*l.C)
	tensor.MatMulInto(l.m, x, l.T.W) // (N, B*C)
	if cap(l.cexp) < n*n*l.B {
		l.cexp = make([]float64, n*n*l.B)
	}
	l.cexp = l.cexp[:n*n*l.B]
	l.out = tensor.Ensure(l.out, n, l.A+l.B)
	l.out.Zero()
	out := l.out
	for i := 0; i < n; i++ {
		copy(out.Data[i*(l.A+l.B):i*(l.A+l.B)+l.A], x.Data[i*l.A:(i+1)*l.A])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for b := 0; b < l.B; b++ {
				d := 0.0
				mi := l.m.Data[i*l.B*l.C+b*l.C : i*l.B*l.C+(b+1)*l.C]
				mj := l.m.Data[j*l.B*l.C+b*l.C : j*l.B*l.C+(b+1)*l.C]
				for c := range mi {
					d += math.Abs(float64(mi[c]) - float64(mj[c]))
				}
				e := math.Exp(-d)
				l.cexp[(i*n+j)*l.B+b] = e
				l.cexp[(j*n+i)*l.B+b] = e
				out.Data[i*(l.A+l.B)+l.A+b] += tensor.Elem(e)
				out.Data[j*(l.A+l.B)+l.A+b] += tensor.Elem(e)
			}
		}
	}
	return out
}

// Backward propagates through both the concatenated pass-through part
// and the similarity features.
func (l *MinibatchDiscrimination) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return l.BackwardWant(grad, WantParams|WantInput)
}

// BackwardWant is Backward restricted to want: dM is shared, dT += xᵀ·dM
// runs only with WantParams (dT = xᵀ·dM under WantWrite), the
// pass-through copy and dM·Tᵀ only with WantInput (nil otherwise).
func (l *MinibatchDiscrimination) BackwardWant(grad *tensor.Tensor, want Want) *tensor.Tensor {
	n := l.x.Dim(0)
	l.dm = tensor.Ensure(l.dm, n, l.B*l.C)
	l.dm.Zero()
	dm := l.dm
	// Similarity component: for every pair (i, j) and kernel b,
	// dM_{i,b,c} += −(go_{i,b} + go_{j,b})·c_{ijb}·sign(M_{i,b,c} − M_{j,b,c}).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for b := 0; b < l.B; b++ {
				e := l.cexp[(i*n+j)*l.B+b]
				if e == 0 {
					continue
				}
				gij := float64(grad.Data[i*(l.A+l.B)+l.A+b] + grad.Data[j*(l.A+l.B)+l.A+b])
				if gij == 0 {
					continue
				}
				scale := tensor.Elem(-gij * e)
				mi := l.m.Data[i*l.B*l.C+b*l.C : i*l.B*l.C+(b+1)*l.C]
				mj := l.m.Data[j*l.B*l.C+b*l.C : j*l.B*l.C+(b+1)*l.C]
				dmi := dm.Data[i*l.B*l.C+b*l.C : i*l.B*l.C+(b+1)*l.C]
				dmj := dm.Data[j*l.B*l.C+b*l.C : j*l.B*l.C+(b+1)*l.C]
				for c := range mi {
					s := sign(mi[c] - mj[c])
					dmi[c] += scale * s
					dmj[c] -= scale * s
				}
			}
		}
	}
	if want.writes() {
		tensor.MatMulT1Into(l.T.Grad, l.x, dm) // dT = xᵀ·dM
	} else if want&WantParams != 0 {
		tensor.MatMulT1Add(l.T.Grad, l.x, dm) // dT += xᵀ·dM
	}
	if want&WantInput == 0 {
		return nil
	}
	// dx = pass-through component + dM·Tᵀ.
	l.dx = tensor.Ensure(l.dx, n, l.A)
	dx := l.dx
	for i := 0; i < n; i++ {
		copy(dx.Data[i*l.A:(i+1)*l.A], grad.Data[i*(l.A+l.B):i*(l.A+l.B)+l.A])
	}
	tensor.MatMulT2Add(dx, dm, l.T.W)
	return dx
}

func sign(v tensor.Elem) tensor.Elem {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// Params returns the projection tensor.
func (l *MinibatchDiscrimination) Params() []*Param { return []*Param{l.T} }

// Clone returns a deep copy.
func (l *MinibatchDiscrimination) Clone() Layer {
	return &MinibatchDiscrimination{
		A: l.A, B: l.B, C: l.C,
		T: newParam(l.T.Name, l.T.W.Clone()),
	}
}
