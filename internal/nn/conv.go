package nn

import (
	"fmt"
	"math"
	"math/rand"

	"mdgan/internal/parallel"
	"mdgan/internal/tensor"
)

// The convolution layers are batched end to end: one matmul per product
// per batch, through the plain tensor.MatMul* entry points, so each
// product takes the kernel the dispatch picks for its shape — at a
// training batch's few channels, the skinny kernels that read the
// im2col matrix in place. Each im2col-shaped operand is built once per
// pass as a pooled tensor: Conv2D's col(x) in Forward, kept for the
// weight gradient; ConvTranspose2D's channel-major x̂ in Forward, kept
// likewise, and its gradient's im2col matrix once in Backward, shared by
// the dx and dW products. im2col and col2im find each patch
// coordinate's in-image output rows and columns once. At stride 2,
// which every ScaledCNN conv and ConvTranspose2D adjoint runs at, the
// whole block is then one tensor.GatherStride2 or tensor.AddStride2
// call (AVX-512 kernels on the avx512 tier, bitwise equal to their Go
// loops); other strides walk it row by row. The backward passes run the
// transposed products straight into preallocated gradient buffers, and
// every workspace not kept for Backward is released before the pass
// returns.

// convGeom describes a convolution geometry shared by Conv2D (as its
// forward map) and ConvTranspose2D (as its backward map).
type convGeom struct {
	inC, inH, inW int
	kh, kw        int
	stride, pad   int
	outH, outW    int
}

func newConvGeom(inC, inH, inW, kh, kw, stride, pad int) convGeom {
	g := convGeom{inC: inC, inH: inH, inW: inW, kh: kh, kw: kw, stride: stride, pad: pad}
	g.outH = (inH+2*pad-kh)/stride + 1
	g.outW = (inW+2*pad-kw)/stride + 1
	if g.outH <= 0 || g.outW <= 0 {
		panic(fmt.Sprintf("nn: conv geometry collapses: in %dx%d k %dx%d s %d p %d", inH, inW, kh, kw, stride, pad))
	}
	return g
}

// span returns the in-image part [tlo, thi) of a run of n output
// positions along an input extent of size whose first reads input
// position i0: position t reads i0 + t·stride. Only the ⌈pad/stride⌉
// positions at either end can fall outside the image, so it steps in
// from both ends instead of dividing.
func (g convGeom) span(i0, n, size int) (tlo, thi int) {
	for tlo < n && i0+tlo*g.stride < 0 {
		tlo++
	}
	thi = n
	for thi > tlo && i0+(thi-1)*g.stride >= size {
		thi--
	}
	return tlo, thi
}

// col2im scatters one column block of a batched col matrix back into an
// image, accumulating overlapping contributions — the adjoint of
// im2col. A patch coordinate (c, ki, kj) reaches the in-image output
// rows [oyA, oyB), which depend on ki only, and columns [lo, hi), which
// depend on kj only, so both are found once. At stride 2 the whole
// block of rows is one tensor.AddStride2 call; other strides walk it row
// by row. The visit order stays (c, ki, kj, oy, ox) and only
// out-of-image elements are skipped, so each input element's additions
// run in the order of a per-element loop (TestCol2imMatchesReference
// pins this bitwise).
func (g convGeom) col2im(col []tensor.Elem, rowStride, colOff int, x []tensor.Elem) {
	idx := 0
	for c := 0; c < g.inC; c++ {
		for ki := 0; ki < g.kh; ki++ {
			oyA, oyB := g.span(ki-g.pad, g.outH, g.inH)
			for kj := 0; kj < g.kw; kj++ {
				row := col[idx*rowStride+colOff : idx*rowStride+colOff+g.outH*g.outW]
				idx++
				lo, hi := g.span(kj-g.pad, g.outW, g.inW)
				if lo == hi || oyA == oyB {
					continue
				}
				xc := x[(c*g.inH+oyA*g.stride+ki-g.pad)*g.inW+lo*g.stride+kj-g.pad:]
				if g.stride == 2 {
					tensor.AddStride2(xc, row[oyA*g.outW+lo:], oyB-oyA, 2*g.inW, g.outW, hi-lo)
					continue
				}
				for oy := oyA; oy < oyB; oy++ {
					xr := xc[(oy-oyA)*g.stride*g.inW:]
					for t, v := range row[oy*g.outW+lo : oy*g.outW+hi] {
						xr[t*g.stride] += v
					}
				}
			}
		}
	}
}

// forImages fans a per-image loop out to the scheduler when the total
// work justifies it. The grain is sized so one task carries ~2^14
// scalar operations: tiny batches run inline (n <= grain), and big
// batches split down to single images so K concurrent simulated
// workers' conv layers can interleave on the shared scheduler.
func forImages(n, perImageWork int, fn func(s, e int)) {
	parallel.ForGrain(n, 1<<14/(perImageWork+1), fn)
}

// im2col writes the batched im2col matrix of xd, a batch of n images
// of per-image volume inVol, into col (inC·kh·kw, n·outH·outW): row
// (c, ki, kj), column i·outH·outW + oy·outW + ox holds
// x[i][c][oy·stride+ki−pad][ox·stride+kj−pad], or zero outside the
// image. It walks col the way col2im walks it, row by row in (c, ki, kj)
// order, each row through the batch, so col is written front to back
// while the n planes of channel c stay in cache. The in-image output
// rows [oyA, oyB) are found once per ki and the columns [lo, hi) once
// per kj; each image's plane is then one clear of the rows above, the
// block of in-image rows — one tensor.GatherStride2 call at stride 2, a
// copy or a strided loop per row otherwise, between zeroed ends — and
// one clear of the rows below. Channels fan out to the scheduler and
// each writes only its own rows, so every element is written exactly
// once whatever the split.
func (g convGeom) im2col(xd []tensor.Elem, inVol, n int, col []tensor.Elem) {
	oHW, plane := g.outH*g.outW, g.inH*g.inW
	parallel.ForGrain(g.inC, 1<<14/(g.kh*g.kw*n*oHW+1), func(c0, c1 int) {
		idx := c0 * g.kh * g.kw
		for c := c0; c < c1; c++ {
			for ki := 0; ki < g.kh; ki++ {
				oyA, oyB := g.span(ki-g.pad, g.outH, g.inH)
				for kj := 0; kj < g.kw; kj++ {
					row := col[idx*n*oHW : (idx+1)*n*oHW]
					idx++
					lo, hi := g.span(kj-g.pad, g.outW, g.inW)
					if lo == hi || oyA == oyB {
						clear(row)
						continue
					}
					// The input element of output (oyA, lo) in channel c.
					off := c*plane + (oyA*g.stride+ki-g.pad)*g.inW + lo*g.stride + kj - g.pad
					for i := 0; i < n; i++ {
						d, src := row[i*oHW:(i+1)*oHW], xd[i*inVol+off:i*inVol+(c+1)*plane]
						clear(d[:oyA*g.outW])
						if g.stride == 2 {
							tensor.GatherStride2(d[oyA*g.outW:], src, oyB-oyA, g.outW, 2*g.inW, lo, hi-lo)
						} else {
							for oy := oyA; oy < oyB; oy++ {
								r, s := d[oy*g.outW:(oy+1)*g.outW], src[(oy-oyA)*g.stride*g.inW:]
								clear(r[:lo])
								if g.stride == 1 {
									copy(r[lo:hi], s)
								} else {
									for t := range r[lo:hi] {
										r[lo+t] = s[t*g.stride]
									}
								}
								clear(r[hi:])
							}
						}
						clear(d[oyB*g.outW:])
					}
				}
			}
		}
	})
}

// channelMajor lays a batch src (n, ch, hw) out as dst (ch, n·hw) by
// per-channel copies: dst[c][i·hw+p] = src[i][c][p].
func channelMajor(dst, src []tensor.Elem, n, ch, hw int) {
	vol := ch * hw
	forImages(n, vol, func(s, e int) {
		for i := s; i < e; i++ {
			for c := 0; c < ch; c++ {
				copy(dst[c*n*hw+i*hw:c*n*hw+(i+1)*hw], src[i*vol+c*hw:i*vol+(c+1)*hw])
			}
		}
	})
}

// Conv2D is a standard 2-D convolution over NCHW tensors. Forward
// builds the im2col matrix col(x) once, as a pooled tensor, and
// multiplies W·col(x); a training Forward keeps col(x) for the weight
// gradient g·col(x)ᵀ, so Backward never gathers x again.
type Conv2D struct {
	geom convGeom
	OutC int
	W, B *Param // W: (OutC, InC*KH*KW), B: (1, OutC)
	x    *tensor.Tensor
	// col is the pooled col(x) of the last training-mode Forward, held
	// for Backward and released by it (or by the next Forward); nil
	// means there is no training Forward to back-propagate.
	col *tensor.Tensor
	out *tensor.Tensor // layer-owned output buffer
	dx  *tensor.Tensor // layer-owned input-gradient buffer
}

// NewConv2D builds a convolution mapping (N, inC, inH, inW) to
// (N, outC, outH, outW) with He-uniform initial weights.
func NewConv2D(inC, inH, inW, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	g := newConvGeom(inC, inH, inW, k, k, stride, pad)
	w := tensor.New(outC, inC*k*k)
	fanIn := inC * k * k
	heUniform(w, fanIn, rng)
	return &Conv2D{
		geom: g, OutC: outC,
		W: newParam(fmt.Sprintf("conv%dx%d.W", inC, outC), w),
		B: newParam(fmt.Sprintf("conv%dx%d.b", inC, outC), tensor.New(1, outC)),
	}
}

func heUniform(w *tensor.Tensor, fanIn int, rng *rand.Rand) {
	a := math.Sqrt(6.0 / float64(fanIn))
	for i := range w.Data {
		w.Data[i] = tensor.Elem((rng.Float64()*2 - 1) * a)
	}
}

// OutShape returns the per-image output dimensions (C, H, W).
func (c *Conv2D) OutShape() (int, int, int) { return c.OutC, c.geom.outH, c.geom.outW }

// Forward applies the convolution to x (N, inC, inH, inW). The returned
// tensor is a layer-owned buffer, valid until the next Forward call.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.geom
	n := x.Dim(0)
	inVol := g.inC * g.inH * g.inW
	if x.Size()/n != inVol {
		panic(fmt.Sprintf("nn: Conv2D input %v, want per-image volume %d", x.Shape(), inVol))
	}
	c.x = x
	oHW := g.outH * g.outW

	// One matmul for the whole batch: (OutC, ckk)·(ckk, n·oHW).
	tensor.Put(c.col) // a training Forward that saw no Backward
	c.col = nil
	col := tensor.Get(g.inC*g.kh*g.kw, n*oHW)
	g.im2col(x.Data, inVol, n, col.Data)
	y := tensor.Get(c.OutC, n*oHW)
	tensor.MatMulInto(y, c.W.W, col)
	if train {
		c.col = col
	} else {
		tensor.Put(col)
	}

	// Scatter (OutC, n·oHW) → (n, OutC, oHW), adding the bias.
	c.out = tensor.Ensure(c.out, n, c.OutC, g.outH, g.outW)
	outVol := c.OutC * oHW
	od, yd, bd := c.out.Data, y.Data, c.B.W.Data
	outC := c.OutC
	forImages(n, outVol, func(s, e int) {
		for i := s; i < e; i++ {
			for oc := 0; oc < outC; oc++ {
				src := yd[oc*n*oHW+i*oHW : oc*n*oHW+(i+1)*oHW]
				dst := od[i*outVol+oc*oHW : i*outVol+(oc+1)*oHW]
				b := bd[oc]
				for j, v := range src {
					dst[j] = v + b
				}
			}
		}
	})
	tensor.Put(y)
	return c.out
}

// Backward accumulates weight/bias gradients and returns the input
// gradient (a layer-owned buffer, valid until the next Backward call).
// The weight gradient reads the col(x) the training Forward kept, and
// Backward releases it, so no workspace survives the pass.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.BackwardWant(grad, WantParams|WantInput)
}

// BackwardWant is Backward restricted to want: the gather of grad is
// shared, the dW product and bias reduction run only with
// WantParams (stored instead of accumulated under WantWrite), and Wᵀ·gy
// with its col2im scatter only with WantInput (nil otherwise).
func (c *Conv2D) BackwardWant(grad *tensor.Tensor, want Want) *tensor.Tensor {
	if c.col == nil {
		panic("nn: Conv2D.Backward without a training-mode Forward")
	}
	g := c.geom
	n := c.x.Dim(0)
	oHW := g.outH * g.outW
	ckk := g.inC * g.kh * g.kw
	inVol := g.inC * g.inH * g.inW

	// Gather grad (n, OutC, oHW) → (OutC, n·oHW), mirroring the batched
	// forward layout.
	gy := tensor.Get(c.OutC, n*oHW)
	channelMajor(gy.Data, grad.Data, n, c.OutC, oHW)
	gyd := gy.Data

	// dW += gy·col(x)ᵀ and dB += per-channel sums: one matmul against
	// the retained col(x), one contiguous reduction.
	if want&WantParams != 0 {
		if want.writes() {
			tensor.MatMulT2Into(c.W.Grad, gy, c.col)
			c.B.Grad.Zero()
		} else {
			tensor.MatMulT2Add(c.W.Grad, gy, c.col)
		}
		db := c.B.Grad.Data
		for oc := 0; oc < c.OutC; oc++ {
			sum := 0.0
			for _, v := range gyd[oc*n*oHW : (oc+1)*n*oHW] {
				sum += float64(v)
			}
			db[oc] += tensor.Elem(sum)
		}
	}
	// col(x) is spent; its storage takes dcol.
	dcol := c.col
	c.col = nil
	if want&WantInput == 0 {
		tensor.Put(gy)
		tensor.Put(dcol)
		return nil
	}

	// dcol = Wᵀ·gy, scattered back per image into dx.
	tensor.MatMulT1Into(dcol, c.W.W, gy)
	tensor.Put(gy)
	c.dx = tensor.Ensure(c.dx, c.x.Shape()...)
	c.dx.Zero()
	dxd, dcd := c.dx.Data, dcol.Data
	forImages(n, ckk*oHW, func(s, e int) {
		for i := s; i < e; i++ {
			g.col2im(dcd, n*oHW, i*oHW, dxd[i*inVol:(i+1)*inVol])
		}
	})
	tensor.Put(dcol)
	return c.dx
}

// Params returns the kernel and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// Clone returns a deep copy.
func (c *Conv2D) Clone() Layer {
	return &Conv2D{
		geom: c.geom, OutC: c.OutC,
		W: newParam(c.W.Name, c.W.W.Clone()),
		B: newParam(c.B.Name, c.B.W.Clone()),
	}
}

// ConvTranspose2D is the transposed (fractionally-strided) convolution
// used by the paper's generators to upsample. Its forward pass is the
// adjoint of a Conv2D whose *forward* direction maps the ConvTranspose
// output geometry back to its input geometry.
type ConvTranspose2D struct {
	geom      convGeom // geometry of the adjoint conv: in = our OUTPUT
	InC, OutC int
	inH, inW  int
	W, B      *Param // W: (InC, OutC*KH*KW), B: (1, OutC)
	x         *tensor.Tensor
	// xhat is the pooled channel-major x̂ of the last training-mode
	// Forward, held for the weight gradient and released by Backward (or
	// by the next Forward); nil means there is no training Forward to
	// back-propagate.
	xhat *tensor.Tensor
	out  *tensor.Tensor
	dx   *tensor.Tensor
}

// NewConvTranspose2D maps (N, inC, inH, inW) to (N, outC, outH, outW)
// with outH = (inH−1)*stride − 2*pad + k + outPad. outPad (0 ≤ outPad <
// stride) grows the output by rows/columns that receive only the bias,
// matching the output_padding used by 'same'-padded stride-2 transposed
// convolutions (e.g. 7→14 with k=5, pad=2, outPad=1).
func NewConvTranspose2D(inC, inH, inW, outC, k, stride, pad, outPad int, rng *rand.Rand) *ConvTranspose2D {
	if outPad < 0 || outPad >= stride {
		panic("nn: ConvTranspose2D needs 0 <= outPad < stride")
	}
	outH := (inH-1)*stride - 2*pad + k + outPad
	outW := (inW-1)*stride - 2*pad + k + outPad
	if outH <= 0 || outW <= 0 {
		panic("nn: ConvTranspose2D geometry collapses")
	}
	// The adjoint conv consumes our output (outC, outH, outW) and must
	// produce exactly (inH, inW) spatial positions.
	g := newConvGeom(outC, outH, outW, k, k, stride, pad)
	if g.outH != inH || g.outW != inW {
		panic(fmt.Sprintf("nn: ConvTranspose2D inconsistent geometry: adjoint yields %dx%d, want %dx%d", g.outH, g.outW, inH, inW))
	}
	w := tensor.New(inC, outC*k*k)
	heUniform(w, inC*k*k, rng)
	return &ConvTranspose2D{
		geom: g, InC: inC, OutC: outC, inH: inH, inW: inW,
		W: newParam(fmt.Sprintf("convT%dx%d.W", inC, outC), w),
		B: newParam(fmt.Sprintf("convT%dx%d.b", inC, outC), tensor.New(1, outC)),
	}
}

// OutShape returns the per-image output dimensions (C, H, W).
func (c *ConvTranspose2D) OutShape() (int, int, int) { return c.OutC, c.geom.inH, c.geom.inW }

// Forward computes y = col2im(Wᵀ·x̂) + b for the whole batch at once:
// x̂ (InC, n·hw) is the input laid out channel-major by per-channel
// copies, one transposed matmul produces every patch column, and col2im
// scatters them per image. A training Forward keeps x̂ for the weight
// gradient.
func (c *ConvTranspose2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.geom
	n := x.Dim(0)
	hw := c.inH * c.inW
	inVol := c.InC * hw
	if x.Size()/n != inVol {
		panic(fmt.Sprintf("nn: ConvTranspose2D input %v, want per-image volume %d", x.Shape(), inVol))
	}
	c.x = x
	outVol := c.OutC * g.inH * g.inW
	oPlane := g.inH * g.inW

	// col = Wᵀ·x̂: (OutC·k·k, n·hw) in one matmul.
	tensor.Put(c.xhat) // a training Forward that saw no Backward
	c.xhat = nil
	xhat := tensor.Get(c.InC, n*hw)
	channelMajor(xhat.Data, x.Data, n, c.InC, hw)
	col := tensor.Get(c.OutC*g.kh*g.kw, n*hw)
	tensor.MatMulT1Into(col, c.W.W, xhat)
	if train {
		c.xhat = xhat
	} else {
		tensor.Put(xhat)
	}

	// Per image: start from the bias plane, then scatter the columns.
	c.out = tensor.Ensure(c.out, n, c.OutC, g.inH, g.inW)
	od, cd, bd := c.out.Data, col.Data, c.B.W.Data
	outC := c.OutC
	forImages(n, outVol*g.kh*g.kw, func(s, e int) {
		for i := s; i < e; i++ {
			dst := od[i*outVol : (i+1)*outVol]
			for oc := 0; oc < outC; oc++ {
				plane := dst[oc*oPlane : (oc+1)*oPlane]
				b := bd[oc]
				for j := range plane {
					plane[j] = b
				}
			}
			g.col2im(cd, n*hw, i*hw, dst)
		}
	})
	tensor.Put(col)
	return c.out
}

// Backward: dx = W·im2col(grad); dW += x̂·im2col(grad)ᵀ; db sums grad
// per channel — all batched. The gradient's im2col matrix gcol is built
// once and shared by both products; it and the retained x̂ are released
// before the pass returns.
func (c *ConvTranspose2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.BackwardWant(grad, WantParams|WantInput)
}

// BackwardWant is Backward restricted to want: the dx̂ product and its
// unpack run only with WantInput (nil otherwise), the dW product and
// the bias reduction only with WantParams (stored instead of
// accumulated under WantWrite).
func (c *ConvTranspose2D) BackwardWant(grad *tensor.Tensor, want Want) *tensor.Tensor {
	if c.xhat == nil {
		panic("nn: ConvTranspose2D.Backward without a training-mode Forward")
	}
	g := c.geom
	n := c.x.Dim(0)
	hw := c.inH * c.inW
	inVol := c.InC * hw
	outVol := c.OutC * g.inH * g.inW
	oPlane := g.inH * g.inW
	ckk := c.OutC * g.kh * g.kw
	gd := grad.Data
	gcol := tensor.Get(ckk, n*hw)
	g.im2col(gd, outVol, n, gcol.Data)

	inC := c.InC
	var dx *tensor.Tensor
	if want&WantInput != 0 {
		// dx̂ = W·gcol (InC, n·hw), unpacked to (n, InC, hw).
		dxhat := tensor.Get(c.InC, n*hw)
		tensor.MatMulInto(dxhat, c.W.W, gcol)
		c.dx = tensor.Ensure(c.dx, c.x.Shape()...)
		dx = c.dx
		dxd, dh := dx.Data, dxhat.Data
		forImages(n, inVol, func(s, e int) {
			for i := s; i < e; i++ {
				for ic := 0; ic < inC; ic++ {
					copy(dxd[i*inVol+ic*hw:i*inVol+(ic+1)*hw], dh[ic*n*hw+i*hw:ic*n*hw+(i+1)*hw])
				}
			}
		})
		tensor.Put(dxhat)
	}

	if want&WantParams != 0 {
		// dW += x̂·gcolᵀ against the x̂ the training Forward kept.
		if want.writes() {
			tensor.MatMulT2Into(c.W.Grad, c.xhat, gcol)
			c.B.Grad.Zero()
		} else {
			tensor.MatMulT2Add(c.W.Grad, c.xhat, gcol)
		}

		// dB sums the gradient per output channel.
		db := c.B.Grad.Data
		for i := 0; i < n; i++ {
			gi := gd[i*outVol : (i+1)*outVol]
			for oc := 0; oc < c.OutC; oc++ {
				sum := 0.0
				for _, v := range gi[oc*oPlane : (oc+1)*oPlane] {
					sum += float64(v)
				}
				db[oc] += tensor.Elem(sum)
			}
		}
	}
	tensor.Put(gcol)
	tensor.Put(c.xhat)
	c.xhat = nil
	return dx
}

// Params returns the kernel and bias.
func (c *ConvTranspose2D) Params() []*Param { return []*Param{c.W, c.B} }

// Clone returns a deep copy.
func (c *ConvTranspose2D) Clone() Layer {
	return &ConvTranspose2D{
		geom: c.geom, InC: c.InC, OutC: c.OutC, inH: c.inH, inW: c.inW,
		W: newParam(c.W.Name, c.W.W.Clone()),
		B: newParam(c.B.Name, c.B.W.Clone()),
	}
}
