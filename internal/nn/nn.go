// Package nn implements the neural-network layers, containers and loss
// functions used by the GAN models. Every layer provides exact analytic
// backpropagation for both its parameters and its input; the *input*
// gradients matter as much as the parameter gradients here, because the
// MD-GAN error feedback F_n is precisely the gradient of the generator
// loss with respect to the generated data (paper §IV-B2).
//
// Buffer ownership: layers reuse internal buffers across calls, so the
// tensor returned by Forward is valid only until the layer's next
// Forward call, and the tensor returned by Backward only until its next
// Backward call. Callers that retain an output across another pass
// through the same layer (e.g. to compare two forward passes) must
// Clone it. Layer instances are not safe for concurrent use; distinct
// instances (e.g. per MD-GAN worker) are independent. The same
// discipline extends up the stack: the MD-GAN round engine
// (internal/core, engine.go) owns per-round stage buffers that are
// reset — not reallocated — when a round slot is reused, and encodes
// each generator output into its wire frame before the next Forward
// clobbers it, so nothing there retains a layer buffer across passes
// either (the clone-or-corrupt tests in core pin both levels). The
// serving tier (internal/serve) lives under the same rule: the request
// coalescer answers every fused request with a pooled COPY of its
// slice of the generator's output — response encoding (raw frames,
// PNG) happens on the HTTP goroutine, concurrent with the replica's
// next Forward, so a response that aliased the generator's buffer
// would corrupt under exactly two overlapping requests. Its
// contract_test.go pins the serve-side retention sites (responses,
// the /preview cache) the way core's pins the engine's.
//
// Want-sets: a training step rarely reads everything a backward pass
// can produce — a discriminator update reads parameter gradients and
// never ∂L/∂x of the data, the MD-GAN feedback reads ∂L/∂x and never a
// parameter gradient. BackwardWant takes the set of gradients the
// caller will read (WantParams, WantInput) as an argument of the call;
// nothing is stored on a layer, and Backward(grad) keeps meaning
// "both". Parameter layers skip the product, reduction and buffer of
// what was not asked for: without WantParams no Param.Grad is touched
// (not accumulated into, not zeroed), and without WantInput the result
// is nil — never the buffer a previous call returned. Inside a
// Sequential only the first parameter layer can drop its input
// gradient (every later one feeds the layer below it) and the
// parameter-free layers in front of it are not run at all. Whatever is
// computed is computed by the same operations in the same order as
// under Backward, so it is bitwise the same. A Layer that does not
// implement BackwardWant gets a plain Backward.
//
// WantWrite says how the parameter gradients are delivered: written
// over whatever Param.Grad holds instead of accumulated into it, so the
// first backward pass of an update needs no ZeroGrads before it — a
// Dense layer stores xᵀ·g and its bias sums where it would have cleared
// a weight-shaped array only to read it back and add. The result is the
// one an accumulating pass leaves in a zeroed gradient. Every
// BackwardWant in this package honours the bit; a parameter layer
// without BackwardWant cannot, so Sequential zeroes that layer's
// gradients itself before its plain, accumulating Backward — whichever
// way a layer takes, a stale gradient never leaks into the step.
//
// The discipline extends DOWN the stack too, into the tensor pool: a
// training-mode Forward of Conv2D keeps its im2col matrix col(x), and
// one of ConvTranspose2D its channel-major input x̂, for the weight
// gradient of the Backward that follows. Each is a pooled workspace
// the layer owns — a copy, never a view of the upstream layer's
// buffer — and Backward returns it to the pool. So does the next
// Forward when no Backward came between; an eval-mode Forward keeps
// none, and a Clone starts without one (contract_test.go pins all
// three). Every other conv workspace, and the GEMM's pack panels, is
// released before the call that drew it returns.
//
// Dtype: activations, parameters and gradients are stored and combined
// at tensor.Elem width (float64 by default, float32 under `-tags f32`),
// so the matmul/im2col hot path moves half the bytes under the f32
// build. Numerics that either span many elements or feed long-running
// state deliberately stay float64 at any width: loss scalars and their
// 1/n factors, bias-gradient reductions inside the conv layers,
// transcendentals (computed via math on widened values, rounded on
// store), and the optimiser moments in package opt. Test tolerances
// follow the dtype through tensor.Tol(f64, f32): float64 asserts keep
// their historical 1e-9/1e-12 bounds, while the float32 values were
// chosen per test from the accumulation depth of the op under test
// (~1e-3 for deep matmul/conv reductions, ~1e-5 for element-wise
// paths); finite-difference gradcheck is skipped under f32, where the
// quotient noise O(ε·|f|/h) makes it meaningless — analytic-vs-
// reference equivalence tests carry that coverage instead.
package nn

import (
	"bytes"
	"fmt"
	"io"

	"mdgan/internal/tensor"
)

// Param is one learnable tensor with its accumulated gradient.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, Grad: tensor.New(w.Shape()...)}
}

// A model is its parameter list. Sequential.Params, gan.Generator.Params
// and gan.Discriminator.Params return the list in wire order, and the
// six functions below are the only codec over one: a swap payload, an
// FL-GAN couple and a checkpoint are all AppendParams frames, and the
// FedAvg vector is ParamVector.

// NumParams returns the number of scalars in ps.
func NumParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.W.Size()
	}
	return n
}

// EncodedParamSize returns the number of bytes AppendParams(_, ps, dt)
// produces — the θ and w payloads the communication accounting of
// Tables III/IV counts, at wire dtype dt.
func EncodedParamSize(ps []*Param, dt byte) int64 {
	var n int64
	for _, p := range ps {
		n += p.W.EncodedSizeAs(dt)
	}
	return n
}

// AppendParams appends every parameter's tensor frame at wire dtype dt
// (converting per element when dt is not the compiled width) and
// returns the extended slice; into a buffer sized by EncodedParamSize it
// does not allocate.
func AppendParams(dst []byte, ps []*Param, dt byte) []byte {
	for _, p := range ps {
		dst = p.W.AppendBinaryAs(dst, dt)
	}
	return dst
}

// ReadParams decodes one frame per parameter from r straight into the
// existing storage. A frame may be of either wire width (the framing
// names its dtype) but must have its parameter's shape. On error the
// parameters may be partially updated — callers treat that as fatal.
func ReadParams(r io.Reader, ps []*Param) (int64, error) {
	var total int64
	for _, p := range ps {
		n, err := p.W.ReadInPlace(r)
		total += n
		if err != nil {
			return total, fmt.Errorf("nn: read %s: %w", p.Name, err)
		}
	}
	return total, nil
}

// DecodeParams is ReadParams over a whole payload, all or nothing: every
// frame is checked against its parameter's shape, and the frames' total
// length against len(p), before the first parameter is written. On
// error — a truncated payload, a frame of another shape, bytes left
// over — the parameters are untouched. A swap decodes this way: a worker
// that cannot adopt its peer's discriminator keeps training its own.
func DecodeParams(p []byte, ps []*Param) error {
	rest := p
	for _, q := range ps {
		n, err := q.W.CheckFrame(rest)
		if err != nil {
			return fmt.Errorf("nn: decode %s: %w", q.Name, err)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("nn: decode: %d bytes after the last parameter", len(rest))
	}
	_, err := ReadParams(bytes.NewReader(p), ps)
	return err
}

// ParamVector flattens the parameters into one []float64 in list order
// (widened from the compiled Elem when that is float32). The result is
// a copy.
func ParamVector(ps []*Param) []float64 {
	out := make([]float64, 0, NumParams(ps))
	for _, p := range ps {
		for _, v := range p.W.Data {
			out = append(out, float64(v))
		}
	}
	return out
}

// SetParamVector loads a vector produced by ParamVector on a list of
// the same shapes. A vector of any other length is rejected before a
// parameter is written.
func SetParamVector(ps []*Param, v []float64) error {
	if n := NumParams(ps); len(v) != n {
		return fmt.Errorf("nn: param vector length %d, parameters hold %d", len(v), n)
	}
	for _, p := range ps {
		n := p.W.Size()
		for i, x := range v[:n] {
			p.W.Data[i] = tensor.Elem(x)
		}
		v = v[n:]
	}
	return nil
}

// Layer is a differentiable module. Forward caches whatever Backward
// needs; Backward consumes the gradient with respect to the layer output
// and returns the gradient with respect to the layer input, accumulating
// parameter gradients as a side effect.
type Layer interface {
	// Forward computes the layer output. train says a Backward may
	// follow (the conv layers refuse a Backward after an inference
	// Forward); no layer computes a different output under it.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates grad (∂L/∂out) and returns ∂L/∂in.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the learnable parameters (possibly none).
	Params() []*Param
	// Clone returns a deep copy with identical parameters and fresh
	// gradient/cache state.
	Clone() Layer
}

// Want is the set of gradients the caller of a backward pass will read.
type Want uint8

const (
	// WantParams asks for ∂L/∂θ accumulated into every Param.Grad.
	WantParams Want = 1 << iota
	// WantInput asks for ∂L/∂x as the pass's result.
	WantInput
	// WantWrite, with WantParams, asks for ∂L/∂θ written over every
	// Param.Grad instead of accumulated into it.
	WantWrite
)

// writes reports whether a pass with this want-set overwrites parameter
// gradients.
func (w Want) writes() bool { return w&(WantParams|WantWrite) == WantParams|WantWrite }

// wantBackwarder is a Layer whose backward pass can leave out what the
// want-set does not name, and writes its parameter gradients instead of
// accumulating them under WantWrite. It returns nil without WantInput.
type wantBackwarder interface {
	BackwardWant(grad *tensor.Tensor, want Want) *tensor.Tensor
}

// Sequential chains layers. Layers must not be modified after the
// first Params call (the flattened parameter list is cached — it is
// consulted several times per training step by ZeroGrads and the
// optimisers).
type Sequential struct {
	Layers []Layer

	params      []*Param
	firstParam  int  // index of the first layer with parameters, len(Layers) if none
	rowWise     bool // every layer is one rowWise knows
	paramsBuilt bool
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs the layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the layers in reverse, accumulating every parameter
// gradient and returning the gradient with respect to the network
// input.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return s.BackwardWant(grad, WantParams|WantInput)
}

// BackwardWant is Backward restricted to the gradients in want (see the
// package doc). Without WantInput it returns nil, stops at the first
// parameter layer and lets that layer drop its input gradient; every
// layer above still produces one, because the layer below consumes it.
// Under WantWrite a layer without BackwardWant has its gradients zeroed
// here, then accumulates.
func (s *Sequential) BackwardWant(grad *tensor.Tensor, want Want) *tensor.Tensor {
	first := 0
	if want&WantInput == 0 {
		s.Params() // fills firstParam on first use
		first = s.firstParam
	}
	for i := len(s.Layers) - 1; i >= first; i-- {
		lw := want | WantInput
		if i == first {
			lw = want
		}
		if l, ok := s.Layers[i].(wantBackwarder); ok {
			grad = l.BackwardWant(grad, lw)
			continue
		}
		if want.writes() {
			zeroGrads(s.Layers[i].Params())
		}
		grad = s.Layers[i].Backward(grad)
	}
	if want&WantInput == 0 {
		return nil
	}
	return grad
}

// Params returns all learnable parameters in layer order. The returned
// slice is cached and shared across calls; callers must not append to
// it in place (copy first, as Discriminator.Params does).
func (s *Sequential) Params() []*Param {
	if !s.paramsBuilt {
		s.firstParam = len(s.Layers)
		s.rowWise = true
		for i, l := range s.Layers {
			s.rowWise = s.rowWise && rowWise(l)
			ps := l.Params()
			if len(ps) > 0 && s.firstParam == len(s.Layers) {
				s.firstParam = i
			}
			s.params = append(s.params, ps...)
		}
		s.paramsBuilt = true
	}
	return s.params
}

// RowWise reports whether, in training mode, every row of a batch goes
// through the network independently of the rows beside it, so that two
// batches stacked into one give each row the output and the gradient it
// would have had in its own batch. It is decided once, with the
// parameter list, from the layer types.
func (s *Sequential) RowWise() bool {
	s.Params()
	return s.rowWise
}

// rowWise reports whether l is a layer type known to treat the rows of
// a training batch independently. MinibatchDiscrimination (pairwise
// distances) is the only layer here that couples them. A type this
// package does not know — a decorator from outside it — is taken to
// couple them too.
func rowWise(l Layer) bool {
	switch l.(type) {
	case *Dense, *Conv2D, *ConvTranspose2D, *LeakyReLU, *Sigmoid, *Tanh, *Reshape, *Flatten:
		return true
	}
	return false
}

// Clone deep-copies the network (parameters included, gradients fresh).
// The clone builds its own parameter cache on first use.
func (s *Sequential) Clone() *Sequential {
	out := &Sequential{Layers: make([]Layer, len(s.Layers))}
	for i, l := range s.Layers {
		out.Layers[i] = l.Clone()
	}
	return out
}

// ZeroGrads clears every accumulated parameter gradient.
func (s *Sequential) ZeroGrads() { zeroGrads(s.Params()) }

func zeroGrads(ps []*Param) {
	for _, p := range ps {
		p.Grad.Zero()
	}
}

// NumParams returns the total number of scalar parameters (the |w| and
// |θ| quantities of the paper's complexity analysis).
func (s *Sequential) NumParams() int { return NumParams(s.Params()) }
