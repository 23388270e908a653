package nn

import (
	"math"

	"mdgan/internal/tensor"
)

// Activation outputs and input gradients live in layer-owned buffers
// (valid until the layer's next Forward/Backward call), so steady-state
// training allocates nothing here.

// LeakyReLU applies max(x, alpha*x) element-wise. Alpha = 0 gives plain
// ReLU. Its forward (v = x) and backward (v = the incoming gradient) are
// each one tensor.Gate, which holds the rule: v where x > 0 and alpha·v
// elsewhere, chosen by a select on the bits of x rather than a branch
// its random signs would mispredict, bit for bit the branch's result for
// every non-NaN x.
type LeakyReLU struct {
	Alpha float64
	x     *tensor.Tensor
	out   *tensor.Tensor
	dx    *tensor.Tensor
}

// NewLeakyReLU returns a LeakyReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

// NewReLU returns a plain ReLU.
func NewReLU() *LeakyReLU { return &LeakyReLU{} }

// Forward applies the activation.
func (l *LeakyReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.x = x
	l.out = tensor.Ensure(l.out, x.Shape()...)
	tensor.Gate(l.out.Data, x.Data, x.Data, tensor.Elem(l.Alpha))
	return l.out
}

// Backward gates the incoming gradient by the activation derivative.
func (l *LeakyReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.dx = tensor.Ensure(l.dx, grad.Shape()...)
	tensor.Gate(l.dx.Data, grad.Data, l.x.Data, tensor.Elem(l.Alpha))
	return l.dx
}

// Params reports no learnables.
func (l *LeakyReLU) Params() []*Param { return nil }

// Clone returns a copy.
func (l *LeakyReLU) Clone() Layer { return &LeakyReLU{Alpha: l.Alpha} }

// Sigmoid applies 1/(1+exp(−x)) element-wise.
type Sigmoid struct {
	y  *tensor.Tensor
	dx *tensor.Tensor
}

// Forward applies the logistic function.
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s.y = tensor.Ensure(s.y, x.Shape()...)
	yd := s.y.Data
	for i, v := range x.Data {
		yd[i] = tensor.Elem(1 / (1 + math.Exp(float64(-v))))
	}
	return s.y
}

// Backward multiplies by y(1−y).
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	s.dx = tensor.Ensure(s.dx, grad.Shape()...)
	od, gd := s.dx.Data, grad.Data
	for i, y := range s.y.Data {
		od[i] = gd[i] * y * (1 - y)
	}
	return s.dx
}

// Params reports no learnables.
func (s *Sigmoid) Params() []*Param { return nil }

// Clone returns a copy.
func (s *Sigmoid) Clone() Layer { return &Sigmoid{} }

// Tanh applies the hyperbolic tangent element-wise; the conventional
// output activation of image generators (pixels in [−1, 1]). The forward
// is tensor.TanhInto: on the avx512 tier an AVX-512 kernel within 2 ulp
// of math.Tanh, which keeps |y| ≤ 1, odd symmetry and NaN exactly;
// elsewhere math.Tanh itself.
type Tanh struct {
	y  *tensor.Tensor
	dx *tensor.Tensor
}

// NewTanh returns a Tanh layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh.
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t.y = tensor.Ensure(t.y, x.Shape()...)
	tensor.TanhInto(t.y, x)
	return t.y
}

// Backward multiplies by 1−y².
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t.dx = tensor.Ensure(t.dx, grad.Shape()...)
	od, gd := t.dx.Data, grad.Data
	for i, y := range t.y.Data {
		od[i] = gd[i] * (1 - y*y)
	}
	return t.dx
}

// Params reports no learnables.
func (t *Tanh) Params() []*Param { return nil }

// Clone returns a copy.
func (t *Tanh) Clone() Layer { return &Tanh{} }
