package nn

import (
	"fmt"
	"math"

	"mdgan/internal/tensor"
)

// BatchNorm normalises each of C features over the batch (and any
// spatial extent): given input (N, C) or (N, C, H, W) it computes
// y = γ·(x−μ)/√(σ²+ε) + β per channel, maintaining running statistics
// for evaluation mode. Generators in the paper's ACGAN architectures use
// batch normalisation between up-sampling layers.
type BatchNorm struct {
	C        int
	Eps      float64
	Momentum float64
	Gamma    *Param
	Beta     *Param
	// Running statistics (not learned, but part of the transferable
	// state — they are serialised with the parameters so a swapped
	// discriminator behaves identically on its new worker).
	RunMean *Param
	RunVar  *Param

	// caches and layer-owned buffers
	xhat    *tensor.Tensor
	out     *tensor.Tensor
	dx      *tensor.Tensor
	std     []float64 // per-channel 1/sqrt(var+eps)
	shape   []int
	spatial int
}

// NewBatchNorm builds a BatchNorm over c channels.
func NewBatchNorm(c int) *BatchNorm {
	bn := &BatchNorm{
		C: c, Eps: 1e-5, Momentum: 0.9,
		Gamma:   newParam(fmt.Sprintf("bn%d.gamma", c), tensor.Ones(1, c)),
		Beta:    newParam(fmt.Sprintf("bn%d.beta", c), tensor.New(1, c)),
		RunMean: newParam(fmt.Sprintf("bn%d.rmean", c), tensor.New(1, c)),
		RunVar:  newParam(fmt.Sprintf("bn%d.rvar", c), tensor.Ones(1, c)),
	}
	return bn
}

// split interprets the input as (N, C, S) where S is the flattened
// spatial extent.
func (bn *BatchNorm) split(x *tensor.Tensor) (n, s int) {
	n = x.Dim(0)
	vol := x.Size() / n
	if vol%bn.C != 0 {
		panic(fmt.Sprintf("nn: BatchNorm(%d) got per-sample volume %d", bn.C, vol))
	}
	return n, vol / bn.C
}

// Forward normalises x.
func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, s := bn.split(x)
	bn.shape = x.Shape()
	bn.spatial = s
	bn.out = tensor.Ensure(bn.out, x.Shape()...)
	out := bn.out
	bn.xhat = tensor.Ensure(bn.xhat, x.Shape()...)
	if bn.std == nil || len(bn.std) != bn.C {
		bn.std = make([]float64, bn.C)
	}
	cnt := float64(n * s)
	for c := 0; c < bn.C; c++ {
		var mean, variance float64
		if train {
			// Batch statistics accumulate in float64 regardless of the
			// compiled Elem: a channel's sum spans n·s values.
			sum := 0.0
			for i := 0; i < n; i++ {
				base := (i*bn.C + c) * s
				for j := 0; j < s; j++ {
					sum += float64(x.Data[base+j])
				}
			}
			mean = sum / cnt
			sq := 0.0
			for i := 0; i < n; i++ {
				base := (i*bn.C + c) * s
				for j := 0; j < s; j++ {
					d := float64(x.Data[base+j]) - mean
					sq += d * d
				}
			}
			variance = sq / cnt
			m := bn.Momentum
			bn.RunMean.W.Data[c] = tensor.Elem(m*float64(bn.RunMean.W.Data[c]) + (1-m)*mean)
			bn.RunVar.W.Data[c] = tensor.Elem(m*float64(bn.RunVar.W.Data[c]) + (1-m)*variance)
		} else {
			mean = float64(bn.RunMean.W.Data[c])
			variance = float64(bn.RunVar.W.Data[c])
		}
		inv := 1 / sqrt(variance+bn.Eps)
		bn.std[c] = inv
		ge, be := bn.Gamma.W.Data[c], bn.Beta.W.Data[c]
		me, ie := tensor.Elem(mean), tensor.Elem(inv)
		for i := 0; i < n; i++ {
			base := (i*bn.C + c) * s
			for j := 0; j < s; j++ {
				xh := (x.Data[base+j] - me) * ie
				bn.xhat.Data[base+j] = xh
				out.Data[base+j] = ge*xh + be
			}
		}
	}
	return out
}

// Backward implements the standard batch-norm gradient (training-mode
// statistics).
func (bn *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return bn.BackwardWant(grad, WantParams|WantInput)
}

// BackwardWant is Backward restricted to want: the per-channel sums
// serve both gradients, dγ and dβ are accumulated only with WantParams
// (into cleared gradients under WantWrite) and the dx sweep runs only
// with WantInput (nil otherwise).
func (bn *BatchNorm) BackwardWant(grad *tensor.Tensor, want Want) *tensor.Tensor {
	n := bn.shape[0]
	s := bn.spatial
	cnt := float64(n * s)
	var dx *tensor.Tensor
	if want&WantInput != 0 {
		bn.dx = tensor.Ensure(bn.dx, bn.shape...)
		dx = bn.dx
	}
	if want.writes() {
		// The running statistics ride in Params with a gradient nothing
		// ever writes; clear all four so none can be stale.
		zeroGrads(bn.Params())
	}
	for c := 0; c < bn.C; c++ {
		g := float64(bn.Gamma.W.Data[c])
		inv := bn.std[c]
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			base := (i*bn.C + c) * s
			for j := 0; j < s; j++ {
				dy := float64(grad.Data[base+j])
				sumDy += dy
				sumDyXhat += dy * float64(bn.xhat.Data[base+j])
			}
		}
		if want&WantParams != 0 {
			bn.Beta.Grad.Data[c] += tensor.Elem(sumDy)
			bn.Gamma.Grad.Data[c] += tensor.Elem(sumDyXhat)
		}
		if dx == nil {
			continue
		}
		scale := tensor.Elem(g * inv)
		mDy, mDyXh := tensor.Elem(sumDy/cnt), tensor.Elem(sumDyXhat/cnt)
		for i := 0; i < n; i++ {
			base := (i*bn.C + c) * s
			for j := 0; j < s; j++ {
				dy := grad.Data[base+j]
				xh := bn.xhat.Data[base+j]
				dx.Data[base+j] = scale * (dy - mDy - xh*mDyXh)
			}
		}
	}
	return dx
}

func sqrt(v float64) float64 { return math.Sqrt(v) }

// Params returns γ, β and the running statistics. The running stats have
// zero gradient always but riding in Params keeps them inside the
// parameter (de)serialisation path, which matters for discriminator
// swaps (paper §IV-C1): a swap must carry the full behavioural state.
func (bn *BatchNorm) Params() []*Param {
	return []*Param{bn.Gamma, bn.Beta, bn.RunMean, bn.RunVar}
}

// Clone returns a deep copy.
func (bn *BatchNorm) Clone() Layer {
	out := NewBatchNorm(bn.C)
	out.Eps, out.Momentum = bn.Eps, bn.Momentum
	out.Gamma.W.CopyFrom(bn.Gamma.W)
	out.Beta.W.CopyFrom(bn.Beta.W)
	out.RunMean.W.CopyFrom(bn.RunMean.W)
	out.RunVar.W.CopyFrom(bn.RunVar.W)
	return out
}
