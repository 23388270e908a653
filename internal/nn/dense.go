package nn

import (
	"fmt"
	"math"
	"math/rand"

	"mdgan/internal/tensor"
)

// Dense is a fully-connected layer: y = x·W + b with x (N, in),
// W (in, out), b (1, out).
type Dense struct {
	In, Out int
	W, B    *Param
	x       *tensor.Tensor // cached input
	out     *tensor.Tensor // layer-owned output buffer
	dx      *tensor.Tensor // layer-owned input-gradient buffer
}

// NewDense creates a Dense layer with Glorot-uniform weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	w := tensor.New(in, out)
	glorotUniform(w, in, out, rng)
	return &Dense{
		In: in, Out: out,
		W: newParam(fmt.Sprintf("dense%dx%d.W", in, out), w),
		B: newParam(fmt.Sprintf("dense%dx%d.b", in, out), tensor.New(1, out)),
	}
}

// glorotUniform fills w with U(−a, a), a = sqrt(6/(fanIn+fanOut)).
func glorotUniform(w *tensor.Tensor, fanIn, fanOut int, rng *rand.Rand) {
	a := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range w.Data {
		w.Data[i] = tensor.Elem((rng.Float64()*2 - 1) * a)
	}
}

// Forward computes x·W + b into a layer-owned buffer (valid until the
// next Forward call).
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 {
		x = x.Reshape(x.Dim(0), x.Size()/x.Dim(0))
	}
	if x.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: Dense expects %d features, got shape %v", d.In, x.Shape()))
	}
	d.x = x
	d.out = tensor.Ensure(d.out, x.Dim(0), d.Out)
	tensor.MatMulInto(d.out, x, d.W.W)
	return d.out.AddRowVecInPlace(d.B.W)
}

// Backward accumulates dW += xᵀ·g, db += Σ_rows g directly into the
// parameter gradients and returns g·Wᵀ in a layer-owned buffer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return d.BackwardWant(grad, WantParams|WantInput)
}

// BackwardWant is Backward restricted to want: the weight-gradient
// product and bias reduction run only with WantParams — stored instead
// of accumulated under WantWrite — and the g·Wᵀ product only with
// WantInput (nil otherwise).
func (d *Dense) BackwardWant(grad *tensor.Tensor, want Want) *tensor.Tensor {
	if grad.Rank() != 2 {
		grad = grad.Reshape(grad.Dim(0), grad.Size()/grad.Dim(0))
	}
	if want&WantParams != 0 {
		if want.writes() {
			tensor.MatMulT1Into(d.W.Grad, d.x, grad)
			d.B.Grad.Zero()
		} else {
			tensor.MatMulT1Add(d.W.Grad, d.x, grad)
		}
		grad.SumRowsAdd(d.B.Grad)
	}
	if want&WantInput == 0 {
		return nil
	}
	d.dx = tensor.Ensure(d.dx, grad.Dim(0), d.In)
	tensor.MatMulT2Into(d.dx, grad, d.W.W)
	return d.dx
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Clone returns a deep copy of the layer.
func (d *Dense) Clone() Layer {
	return &Dense{
		In: d.In, Out: d.Out,
		W: newParam(d.W.Name, d.W.W.Clone()),
		B: newParam(d.B.Name, d.B.W.Clone()),
	}
}
