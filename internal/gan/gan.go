// Package gan implements the GAN models and training primitives shared
// by the standalone baseline, FL-GAN and MD-GAN: a class-conditional
// generator, a two-headed (source + auxiliary class) discriminator in
// the ACGAN style the paper trains (§V-A(b)), the discriminator and
// generator learning steps of §II, and — central to MD-GAN — the error
// feedback F_n = ∂B̃(X^(g))/∂x computed by backpropagating the generator
// objective through the discriminator down to its *input*.
package gan

import (
	"fmt"
	"math/rand"

	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/tensor"
)

// Generator wraps the generator network Gw with latent sampling and
// optional class conditioning. Conditioning multiplies the latent
// vector element-wise with a learned per-class embedding (the Keras
// ACGAN construction), which keeps the core network input at ZDim so
// the paper's parameter counts are preserved exactly.
type Generator struct {
	Net     *nn.Sequential
	Embed   *nn.Param // (Classes, ZDim); nil when unconditional
	ZDim    int
	Classes int

	zCache   *tensor.Tensor
	labCache []int
	inBuf    *tensor.Tensor // reusable conditioned-latent buffer
	params   []*nn.Param    // cached combined parameter list
}

// NewGenerator builds a generator. classes == 0 yields an unconditional
// generator.
func NewGenerator(net *nn.Sequential, zdim, classes int, rng *rand.Rand) *Generator {
	g := &Generator{Net: net, ZDim: zdim, Classes: classes}
	if classes > 0 {
		w := tensor.New(classes, zdim)
		// Near-identity init: conditioning starts as a gentle per-class
		// modulation and sharpens as training progresses.
		for i := range w.Data {
			w.Data[i] = tensor.Elem(1 + 0.1*rng.NormFloat64())
		}
		g.Embed = &nn.Param{Name: "gen.embed", W: w, Grad: tensor.New(classes, zdim)}
	}
	return g
}

// SampleZ draws b latent vectors z ~ N(0,1)^ZDim and, when conditional,
// uniform class labels.
func (g *Generator) SampleZ(b int, rng *rand.Rand) (*tensor.Tensor, []int) {
	z := tensor.New(b, g.ZDim)
	for i := range z.Data {
		z.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	var labels []int
	if g.Classes > 0 {
		labels = make([]int, b)
		for i := range labels {
			labels[i] = rng.Intn(g.Classes)
		}
	}
	return z, labels
}

// Forward maps latents (and labels, when conditional) to samples,
// caching what Backward needs. The returned tensor is a network-owned
// buffer, valid until the generator's next Forward call; callers that
// keep several generated batches alive at once must Clone them.
func (g *Generator) Forward(z *tensor.Tensor, labels []int, train bool) *tensor.Tensor {
	g.zCache, g.labCache = z, labels
	in := z
	if g.Embed != nil {
		if len(labels) != z.Dim(0) {
			panic(fmt.Sprintf("gan: %d labels for %d latents", len(labels), z.Dim(0)))
		}
		g.inBuf = tensor.Ensure(g.inBuf, z.Shape()...)
		in = g.inBuf
		for i := 0; i < z.Dim(0); i++ {
			e := g.Embed.W.Data[labels[i]*g.ZDim : (labels[i]+1)*g.ZDim]
			zi := z.Data[i*g.ZDim : (i+1)*g.ZDim]
			out := in.Data[i*g.ZDim : (i+1)*g.ZDim]
			for j := range zi {
				out[j] = zi[j] * e[j]
			}
		}
	}
	return g.Net.Forward(in, train)
}

// Generate is the convenience path: sample latents and run Forward.
func (g *Generator) Generate(b int, rng *rand.Rand, train bool) (*tensor.Tensor, []int) {
	z, labels := g.SampleZ(b, rng)
	return g.Forward(z, labels, train), labels
}

// Backward accumulates parameter gradients given ∂L/∂output — this is
// exactly what the MD-GAN server does with the merged worker feedbacks.
// The gradient with respect to the latent input is computed only when a
// conditioning embedding sits behind it.
func (g *Generator) Backward(grad *tensor.Tensor) { g.backward(grad, nn.WantParams) }

// BackwardWrite is Backward for the first (or only) batch of an update:
// the parameter gradients are written instead of accumulated (nn's
// WantWrite), so the update needs no ZeroGrads before it. Only the
// embedding gradient is still cleared — its rows are scattered into.
func (g *Generator) BackwardWrite(grad *tensor.Tensor) {
	g.backward(grad, nn.WantParams|nn.WantWrite)
}

func (g *Generator) backward(grad *tensor.Tensor, want nn.Want) {
	if g.Embed == nil {
		g.Net.BackwardWant(grad, want)
		return
	}
	if want&nn.WantWrite != 0 {
		g.Embed.Grad.Zero()
	}
	din := g.Net.BackwardWant(grad, want|nn.WantInput)
	din = din.Reshape(din.Dim(0), din.Size()/din.Dim(0))
	for i, lab := range g.labCache {
		zi := g.zCache.Data[i*g.ZDim : (i+1)*g.ZDim]
		gi := din.Data[i*g.ZDim : (i+1)*g.ZDim]
		eg := g.Embed.Grad.Data[lab*g.ZDim : (lab+1)*g.ZDim]
		for j := range zi {
			eg[j] += gi[j] * zi[j]
		}
	}
}

// Params returns all learnable parameters: the network's, then the
// embedding. That is also their order in a checkpoint and an FL-GAN
// couple (nn.AppendParams over this list). The slice is cached; it must
// not be appended to in place.
func (g *Generator) Params() []*nn.Param {
	if g.params == nil {
		net := g.Net.Params()
		g.params = make([]*nn.Param, 0, len(net)+1)
		g.params = append(g.params, net...)
		if g.Embed != nil {
			g.params = append(g.params, g.Embed)
		}
	}
	return g.params
}

// ZeroGrads clears all parameter gradients.
func (g *Generator) ZeroGrads() {
	for _, p := range g.Params() {
		p.Grad.Zero()
	}
}

// NumParams counts scalar parameters of the core network (the paper's
// |w|; the conditioning embedding is not included).
func (g *Generator) NumParams() int { return g.Net.NumParams() }

// Clone deep-copies the generator.
func (g *Generator) Clone() *Generator {
	out := &Generator{Net: g.Net.Clone(), ZDim: g.ZDim, Classes: g.Classes}
	if g.Embed != nil {
		out.Embed = &nn.Param{Name: g.Embed.Name, W: g.Embed.W.Clone(), Grad: tensor.New(g.Embed.W.Shape()...)}
	}
	return out
}

// Discriminator is the two-headed ACGAN discriminator: a shared trunk
// producing features, a source head (1 logit: real vs generated) and an
// optional class head (K logits). With a nil class head it degrades to
// the vanilla GAN discriminator of §II.
type Discriminator struct {
	Trunk *nn.Sequential
	Src   *nn.Sequential
	Cls   *nn.Sequential // nil for unconditional GANs

	params  []*nn.Param // cached combined parameter list
	rowWise bool        // no layer couples the rows of a batch; cached with params

	stack *tensor.Tensor // DiscStep's real batch stacked on the generated one
}

// Forward returns source logits (N, 1) and class logits (N, K) or nil.
func (d *Discriminator) Forward(x *tensor.Tensor, train bool) (src, cls *tensor.Tensor) {
	feat := d.Trunk.Forward(x, train)
	src = d.Src.Forward(feat, train)
	if d.Cls != nil {
		cls = d.Cls.Forward(feat, train)
	}
	return src, cls
}

// Backward merges head gradients into the trunk, accumulates every
// parameter gradient and returns ∂L/∂input. clsGrad may be nil.
func (d *Discriminator) Backward(srcGrad, clsGrad *tensor.Tensor) *tensor.Tensor {
	return d.BackwardWant(srcGrad, clsGrad, nn.WantParams|nn.WantInput)
}

// BackwardWant is Backward restricted to the gradients the caller will
// read (nn's want-set rule): nn.WantParams alone is a discriminator
// update, which never reads ∂L/∂input and gets nil; nn.WantInput alone
// is the error-feedback path of MD-GAN, which leaves every parameter
// gradient untouched. The heads always produce their input gradient —
// the trunk consumes it.
func (d *Discriminator) BackwardWant(srcGrad, clsGrad *tensor.Tensor, want nn.Want) *tensor.Tensor {
	featGrad := d.Src.BackwardWant(srcGrad, want|nn.WantInput)
	if clsGrad != nil {
		if d.Cls == nil {
			panic("gan: class gradient without class head")
		}
		// featGrad is the Src head's gradient buffer; merging in place
		// is safe because it is consumed by the trunk before the head's
		// next Backward.
		featGrad.AddInPlace(d.Cls.BackwardWant(clsGrad, want|nn.WantInput))
	}
	return d.Trunk.BackwardWant(featGrad, want)
}

// Params returns all learnable parameters: trunk, source head, class
// head — also their order in a swap payload (nn.AppendParams over this
// list). The slice is cached (it is consulted on every ZeroGrads and
// optimiser step) and copied out of the per-network caches so no append
// aliases them.
func (d *Discriminator) Params() []*nn.Param {
	if d.params == nil {
		trunk, src := d.Trunk.Params(), d.Src.Params()
		var cls []*nn.Param
		if d.Cls != nil {
			cls = d.Cls.Params()
		}
		d.params = make([]*nn.Param, 0, len(trunk)+len(src)+len(cls))
		d.params = append(d.params, trunk...)
		d.params = append(d.params, src...)
		d.params = append(d.params, cls...)
		d.rowWise = d.Trunk.RowWise() && d.Src.RowWise() && (d.Cls == nil || d.Cls.RowWise())
	}
	return d.params
}

// ZeroGrads clears all parameter gradients.
func (d *Discriminator) ZeroGrads() {
	for _, p := range d.Params() {
		p.Grad.Zero()
	}
}

// NumParams counts scalar parameters (the paper's |θ|).
func (d *Discriminator) NumParams() int {
	n := d.Trunk.NumParams() + d.Src.NumParams()
	if d.Cls != nil {
		n += d.Cls.NumParams()
	}
	return n
}

// Clone deep-copies the discriminator.
func (d *Discriminator) Clone() *Discriminator {
	out := &Discriminator{Trunk: d.Trunk.Clone(), Src: d.Src.Clone()}
	if d.Cls != nil {
		out.Cls = d.Cls.Clone()
	}
	return out
}

// LossConfig is the loss configuration shared by workers (which hold
// only a discriminator) and full GAN couples.
type LossConfig struct {
	// GenLoss selects the generator objective (paper log(1−D) or the
	// non-saturating heuristic).
	GenLoss nn.GenLossMode
	// ClsWeight weighs the ACGAN auxiliary classification loss; 0
	// disables it even when a class head exists.
	ClsWeight float64
}

// GAN couples a generator and discriminator with the loss
// configuration.
type GAN struct {
	G *Generator
	D *Discriminator
	LossConfig
}

// DiscStep performs one discriminator learning step (§II.1): gradient
// of Jdisc on a real batch (xr, lr) and a generated batch (xg, lg),
// followed by one optimiser update. Only parameter gradients are
// back-propagated; ∂L/∂x of either batch is never formed. Returns the
// discriminator loss.
//
// When no layer of the discriminator couples the rows of a batch
// (nn.Sequential.RowWise — every dense and plain convolutional
// architecture), the two batches are stacked and go through D once:
// each weight is read once on the way up and each weight-shaped
// gradient is written once on the way down, instead of cleared and
// accumulated into twice. Jdisc is a sum of two batch means, so in the
// stacked batch every row keeps the 1/b of its own half — not 1/2b —
// and its target (1 for the real rows, 0 for the generated ones): the
// loss and the gradient are those of the two passes, up to the order a
// weight gradient's 2b terms are added in. Minibatch discrimination is
// the only layer that couples rows: with it in D a row's output depends
// on its batch, so the two batches stay two passes.
func DiscStep(d *Discriminator, lc LossConfig, optD opt.Optimizer, xr *tensor.Tensor, lr []int, xg *tensor.Tensor, lg []int) float64 {
	params := d.Params()
	if d.onePass(xr, xg) {
		loss := discGradStacked(d, lc, xr, lr, xg, lg, nn.WantParams|nn.WantWrite)
		optD.Step(params)
		return loss
	}
	d.ZeroGrads()
	loss := 0.0
	// Real batch, target 1.
	src, cls := d.Forward(xr, true)
	lSrc, gSrc := nn.BCEWithLogits(src, 1)
	loss += lSrc
	var gCls *tensor.Tensor
	if cls != nil && lc.ClsWeight > 0 {
		lCls, gc := nn.SoftmaxCrossEntropy(cls, lr)
		loss += lc.ClsWeight * lCls
		gCls = gc.ScaleInPlace(lc.ClsWeight)
	}
	d.BackwardWant(gSrc, gCls, nn.WantParams)
	// Generated batch, target 0; the class head also trains on the
	// intended labels of the generated samples (ACGAN).
	src, cls = d.Forward(xg, true)
	lSrc, gSrc = nn.BCEWithLogits(src, 0)
	loss += lSrc
	gCls = nil
	if cls != nil && lc.ClsWeight > 0 && lg != nil {
		lCls, gc := nn.SoftmaxCrossEntropy(cls, lg)
		loss += lc.ClsWeight * lCls
		gCls = gc.ScaleInPlace(lc.ClsWeight)
	}
	d.BackwardWant(gSrc, gCls, nn.WantParams)
	optD.Step(params)
	return loss
}

// onePass reports whether DiscStep can run the two batches through d
// stacked: no layer couples rows, and the rows are the same size.
func (d *Discriminator) onePass(xr, xg *tensor.Tensor) bool {
	d.Params() // decides rowWise on first use
	return d.rowWise && xr.Size()/xr.Dim(0) == xg.Size()/xg.Dim(0)
}

// discGradStacked is the one-pass half of DiscStep: it stacks the real
// batch on the generated one in a discriminator-owned buffer, runs one
// forward pass and one backward pass restricted to want, and returns
// Jdisc.
func discGradStacked(d *Discriminator, lc LossConfig, xr *tensor.Tensor, lr []int, xg *tensor.Tensor, lg []int, want nn.Want) float64 {
	nr, ng := xr.Dim(0), xg.Dim(0)
	if !stacks(d.stack, xr, nr+ng) {
		// Only when the batch geometry changes: the steady state reuses
		// the buffer without forming a shape.
		d.stack = tensor.Ensure(d.stack, append([]int{nr + ng}, xr.Shape()[1:]...)...)
	}
	copy(d.stack.Data, xr.Data)
	copy(d.stack.Data[len(xr.Data):], xg.Data)

	src, cls := d.Forward(d.stack, true)
	loss, gSrc := nn.BCEWithLogitsStacked(src, nr)
	var gCls *tensor.Tensor
	if cls != nil && lc.ClsWeight > 0 {
		lCls, gc := nn.SoftmaxCrossEntropyStacked(cls, lr, lg)
		loss += lc.ClsWeight * lCls
		gCls = gc.ScaleInPlace(lc.ClsWeight)
	}
	d.BackwardWant(gSrc, gCls, want)
	return loss
}

// stacks reports whether st already has the shape of n rows shaped like
// x's.
func stacks(st, x *tensor.Tensor, n int) bool {
	if st == nil || st.Rank() != x.Rank() || st.Dim(0) != n {
		return false
	}
	for i := 1; i < x.Rank(); i++ {
		if st.Dim(i) != x.Dim(i) {
			return false
		}
	}
	return true
}

// Feedback computes the MD-GAN error feedback F_n (§IV-B2): the
// gradient of the generator objective with respect to the generated
// batch xg, obtained by backpropagating through the discriminator to
// its input. Only that input gradient is computed: the discriminator's
// parameter gradients are left untouched (no D update happens here), so
// the call costs a forward plus an input-backward — the O(Ib|θ|) Table
// II charges a worker for it. Returns (F_n, generator loss). F_n
// aliases the discriminator's input-gradient buffer and is valid until
// the discriminator's next Backward call.
func Feedback(d *Discriminator, lc LossConfig, xg *tensor.Tensor, lg []int) (*tensor.Tensor, float64) {
	src, cls := d.Forward(xg, true)
	loss, gSrc := nn.GeneratorLoss(src, lc.GenLoss)
	var gCls *tensor.Tensor
	if cls != nil && lc.ClsWeight > 0 && lg != nil {
		lCls, gc := nn.SoftmaxCrossEntropy(cls, lg)
		loss += lc.ClsWeight * lCls
		gCls = gc.ScaleInPlace(lc.ClsWeight)
	}
	return d.BackwardWant(gSrc, gCls, nn.WantInput), loss
}

// GenStepLocal performs one local generator learning step (§II.2) as a
// standalone or FL-GAN node does: generate a batch, evaluate the
// generator objective through the local discriminator, backpropagate
// all the way into G and update. Returns the generator loss.
func GenStepLocal(g *GAN, optG opt.Optimizer, b int, rng *rand.Rand) float64 {
	z, labels := g.G.SampleZ(b, rng)
	xg := g.G.Forward(z, labels, true)
	fn, loss := Feedback(g.D, g.LossConfig, xg, labels)
	g.G.BackwardWrite(fn)
	optG.Step(g.G.Params())
	return loss
}

// Clone deep-copies the whole GAN (FL-GAN replicates the couple onto
// every worker).
func (g *GAN) Clone() *GAN {
	return &GAN{G: g.G.Clone(), D: g.D.Clone(), LossConfig: g.LossConfig}
}
