package nn

import (
	"fmt"
	"math"
	"math/rand"

	"mdgan/internal/parallel"
	"mdgan/internal/tensor"
)

// The convolution layers are batched end to end: one matmul per layer
// per batch, with every im2col-shaped operand consumed through fused
// GEMM packers (im2colSeg / the channel-major x̂ pack) that produce the
// values directly inside the packed B panels the micro-kernel reads —
// neither Conv2D's col(x) nor ConvTranspose2D's x̂/gcol matrices are
// ever materialised. The backward passes run the transposed products
// straight into preallocated gradient buffers. The few remaining
// workspaces come from the tensor pool and are released before the
// pass returns.

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

// im2colSeg fills one row of the batched im2col matrix — row idx, the
// (c, ki, kj) patch coordinate — restricted to the global column range
// [p0, p1), writing dst[0], dst[stride], dst[2*stride], … Columns index
// output positions across the whole batch: p = i·outH·outW + oy·outW +
// ox. It is the packing primitive behind the fused conv GEMM: with
// stride 1 it fills a forward B-panel row, with stride nr it fills one
// column of a transposed (dW) panel, and in both cases the im2col value
// is produced directly in packed layout — one pass over the image
// instead of im2col-then-pack.
func (g convGeom) im2colSeg(x []tensor.Elem, inVol, idx, p0, p1 int, dst []tensor.Elem, stride int) {
	kj := idx % g.kw
	ki := (idx / g.kw) % g.kh
	c := idx / (g.kw * g.kh)
	oHW := g.outH * g.outW
	o := 0
	for p := p0; p < p1; {
		i := p / oHW
		rem := p - i*oHW
		oy := rem / g.outW
		ox := rem - oy*g.outW
		run := g.outW - ox // stay within one output row
		if p+run > p1 {
			run = p1 - p
		}
		iy := oy*g.stride + ki - g.pad
		if iy < 0 || iy >= g.inH {
			for t := 0; t < run; t++ {
				dst[o] = 0
				o += stride
			}
		} else {
			base := i*inVol + (c*g.inH+iy)*g.inW
			for t := 0; t < run; t++ {
				ix := (ox+t)*g.stride + kj - g.pad
				if ix < 0 || ix >= g.inW {
					dst[o] = 0
				} else {
					dst[o] = x[base+ix]
				}
				o += stride
			}
		}
		p += run
	}
}

// col2im scatters one column block of a batched col matrix back into an
// image, accumulating overlapping contributions — the adjoint of
// im2col.
func (g convGeom) col2im(col []tensor.Elem, rowStride, colOff int, x []tensor.Elem) {
	idx := 0
	for c := 0; c < g.inC; c++ {
		for ki := 0; ki < g.kh; ki++ {
			for kj := 0; kj < g.kw; kj++ {
				row := col[idx*rowStride+colOff : idx*rowStride+colOff+g.outH*g.outW]
				idx++
				o := 0
				for oy := 0; oy < g.outH; oy++ {
					iy := oy*g.stride + ki - g.pad
					if iy < 0 || iy >= g.inH {
						o += g.outW
						continue
					}
					base := (c*g.inH + iy) * g.inW
					for ox := 0; ox < g.outW; ox++ {
						ix := ox*g.stride + kj - g.pad
						if ix >= 0 && ix < g.inW {
							x[base+ix] += row[o]
						}
						o++
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

// packIm2col returns the fused forward B-panel packer over xd, a batch
// of n images with per-image volume inVol viewed through geometry g:
// panel columns are batched output positions (cols = n·outH·outW),
// panel rows are (c, ki, kj) patch coordinates, and each row segment is
// one contiguous im2colSeg fill. Conv2D consumes x this way; the
// ConvTranspose2D backward consumes its output gradient the same way.
func (g convGeom) packIm2col(xd []tensor.Elem, inVol, cols int) tensor.BPanelPacker {
	return func(dst []tensor.Elem, k0, k1, j0, nr int) {
		j1 := j0 + nr
		if j1 > cols {
			// Zero-pad the panel columns past the batch edge.
			for kk := k0; kk < k1; kk++ {
				row := dst[(kk-k0)*nr : (kk-k0)*nr+nr]
				for j := cols - j0; j < nr; j++ {
					row[j] = 0
				}
			}
			j1 = cols
		}
		for kk := k0; kk < k1; kk++ {
			g.im2colSeg(xd, inVol, kk, j0, j1, dst[(kk-k0)*nr:], 1)
		}
	}
}

// packIm2colT returns the fused dW B-panel packer for ·col(x)ᵀ
// products: panel columns are (c, ki, kj) patch coordinates, panel rows
// are batched output positions, so each panel column is one strided
// im2colSeg fill.
func (g convGeom) packIm2colT(xd []tensor.Elem, inVol, ckk int) tensor.BPanelPacker {
	return func(dst []tensor.Elem, k0, k1, j0, nr int) {
		for jj := 0; jj < nr; jj++ {
			idx := j0 + jj
			if idx >= ckk {
				for kk := k0; kk < k1; kk++ {
					dst[(kk-k0)*nr+jj] = 0
				}
				continue
			}
			g.im2colSeg(xd, inVol, idx, k0, k1, dst[jj:], nr)
		}
	}
}

// packXhat returns the fused B-panel packer for the channel-major view
// x̂ (C, n·hw) of a batch x (n, C, hw): x̂[c][i·hw+rem] =
// xd[i·inVol+c·hw+rem]. Panel rows are channels, panel columns are
// batched spatial positions, and each row is filled by contiguous
// per-image copies (zero-padded past cols = n·hw). ConvTranspose2D
// consumes its input through this packer instead of materialising x̂.
func packXhat(xd []tensor.Elem, inVol, hw, cols int) tensor.BPanelPacker {
	return func(dst []tensor.Elem, k0, k1, j0, nr int) {
		j1 := j0 + nr
		if j1 > cols {
			// Zero-pad the panel columns past the batch edge.
			for kk := k0; kk < k1; kk++ {
				row := dst[(kk-k0)*nr : (kk-k0)*nr+nr]
				for j := cols - j0; j < nr; j++ {
					row[j] = 0
				}
			}
			j1 = cols
		}
		for kk := k0; kk < k1; kk++ {
			row := dst[(kk-k0)*nr:]
			o := 0
			for p := j0; p < j1; {
				i := p / hw
				rem := p - i*hw
				run := hw - rem // stay within one image's plane
				if p+run > j1 {
					run = j1 - p
				}
				src := xd[i*inVol+kk*hw+rem:]
				copy(row[o:o+run], src[:run])
				o += run
				p += run
			}
		}
	}
}

// Conv2D is a standard 2-D convolution over NCHW tensors. The im2col
// matrix is never materialised: both the forward product W·col(x) and
// the weight gradient g·col(x)ᵀ consume it through fused GEMM packers
// (im2colSeg), which produce each patch value directly inside the
// packed B panels the micro-kernel reads.
type Conv2D struct {
	geom convGeom
	OutC int
	W, B *Param // W: (OutC, InC*KH*KW), B: (1, OutC)
	x    *tensor.Tensor
	// trained records whether the last Forward ran in training mode
	// (Backward re-reads c.x through the fused packer, so it needs no
	// retained workspace — just the mode check).
	trained bool
	out     *tensor.Tensor // layer-owned output buffer
	dx      *tensor.Tensor // layer-owned input-gradient buffer
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
	c.trained = train
	oHW := g.outH * g.outW

	// One fused matmul for the whole batch: (OutC, ckk)·(ckk, n·oHW),
	// the im2col operand produced inside the GEMM's packed B panels.
	y := tensor.Get(c.OutC, n*oHW)
	tensor.MatMulPacked(y, c.W.W, n*oHW, g.packIm2col(x.Data, inVol, n*oHW))

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
// The weight gradient re-reads the retained input through the fused
// transposed im2col packer, so no workspace survives the pass.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.BackwardWant(grad, WantParams|WantInput)
}

// BackwardWant is Backward restricted to want: the gather of grad is
// shared, the fused dW product and bias reduction run only with
// WantParams (stored instead of accumulated under WantWrite), and Wᵀ·gy
// with its col2im scatter only with WantInput (nil otherwise).
func (c *Conv2D) BackwardWant(grad *tensor.Tensor, want Want) *tensor.Tensor {
	g := c.geom
	n := c.x.Dim(0)
	oHW := g.outH * g.outW
	ckk := g.inC * g.kh * g.kw
	inVol := g.inC * g.inH * g.inW
	outVol := c.OutC * oHW
	if !c.trained {
		panic("nn: Conv2D.Backward without a training-mode Forward")
	}

	// Gather grad (n, OutC, oHW) → (OutC, n·oHW), mirroring the batched
	// forward layout.
	gy := tensor.Get(c.OutC, n*oHW)
	gd, gyd := grad.Data, gy.Data
	outC := c.OutC
	forImages(n, outVol, func(s, e int) {
		for i := s; i < e; i++ {
			for oc := 0; oc < outC; oc++ {
				copy(gyd[oc*n*oHW+i*oHW:oc*n*oHW+(i+1)*oHW], gd[i*outVol+oc*oHW:i*outVol+(oc+1)*oHW])
			}
		}
	})

	// dW += gy·col(x)ᵀ and dB += per-channel sums: one fused matmul (the
	// transposed im2col packed straight from x), one contiguous
	// reduction.
	if want&WantParams != 0 {
		if want.writes() {
			tensor.MatMulPacked(c.W.Grad, gy, ckk, g.packIm2colT(c.x.Data, inVol, ckk))
			c.B.Grad.Zero()
		} else {
			tensor.MatMulPackedAdd(c.W.Grad, gy, ckk, g.packIm2colT(c.x.Data, inVol, ckk))
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
	c.trained = false
	if want&WantInput == 0 {
		tensor.Put(gy)
		return nil
	}

	// dcol = Wᵀ·gy, scattered back per image into dx.
	dcol := tensor.Get(ckk, n*oHW)
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
	// trained records whether the last Forward ran in training mode
	// (Backward re-reads c.x through the fused packers, so it needs no
	// retained workspace — just the mode check).
	trained bool
	out     *tensor.Tensor
	dx      *tensor.Tensor
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
// one transposed matmul consumes the channel-major view x̂ (InC, n·hw)
// of the input through the fused packXhat packer, producing every patch
// column, and col2im scatters them per image. x̂ itself is never
// materialised.
func (c *ConvTranspose2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.geom
	n := x.Dim(0)
	hw := c.inH * c.inW
	inVol := c.InC * hw
	if x.Size()/n != inVol {
		panic(fmt.Sprintf("nn: ConvTranspose2D input %v, want per-image volume %d", x.Shape(), inVol))
	}
	c.x = x
	c.trained = train
	outVol := c.OutC * g.inH * g.inW
	oPlane := g.inH * g.inW

	// col = Wᵀ·x̂: (OutC·k·k, n·hw) in one fused matmul.
	col := tensor.Get(c.OutC*g.kh*g.kw, n*hw)
	tensor.MatMulT1Packed(col, c.W.W, n*hw, packXhat(x.Data, inVol, hw, n*hw))

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
// per channel — all batched. The gradient's im2col matrix (the old
// gcol workspace, the largest buffer of the pass) is never
// materialised: both products consume it through the fused
// packIm2col/packIm2colT packers shared with Conv2D.
func (c *ConvTranspose2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.BackwardWant(grad, WantParams|WantInput)
}

// BackwardWant is Backward restricted to want: the dx̂ product and its
// unpack run only with WantInput (nil otherwise), the x̂ repack, the
// fused dW product and the bias reduction only with WantParams (stored
// instead of accumulated under WantWrite).
func (c *ConvTranspose2D) BackwardWant(grad *tensor.Tensor, want Want) *tensor.Tensor {
	g := c.geom
	n := c.x.Dim(0)
	hw := c.inH * c.inW
	inVol := c.InC * hw
	outVol := c.OutC * g.inH * g.inW
	oPlane := g.inH * g.inW
	ckk := c.OutC * g.kh * g.kw
	if !c.trained {
		panic("nn: ConvTranspose2D.Backward without a training-mode Forward")
	}
	gd := grad.Data

	inC := c.InC
	var dx *tensor.Tensor
	if want&WantInput != 0 {
		// dx̂ = W·im2col(grad) (InC, n·hw), the gradient unrolled straight
		// into the GEMM's packed B panels, then unpacked to (n, InC, hw).
		dxhat := tensor.Get(c.InC, n*hw)
		tensor.MatMulPacked(dxhat, c.W.W, n*hw, g.packIm2col(gd, outVol, n*hw))
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
		// dW += x̂·im2col(grad)ᵀ: the left operand is the channel-major
		// repack of x (a cheap transient, InC·n·hw — released before
		// returning), and the transposed im2col of the gradient is packed
		// straight into B panels.
		xhat := tensor.Get(c.InC, n*hw)
		xd, xh := c.x.Data, xhat.Data
		forImages(n, inVol, func(s, e int) {
			for i := s; i < e; i++ {
				for ic := 0; ic < inC; ic++ {
					copy(xh[ic*n*hw+i*hw:ic*n*hw+(i+1)*hw], xd[i*inVol+ic*hw:i*inVol+(ic+1)*hw])
				}
			}
		})
		if want.writes() {
			tensor.MatMulPacked(c.W.Grad, xhat, ckk, g.packIm2colT(gd, outVol, ckk))
			c.B.Grad.Zero()
		} else {
			tensor.MatMulPackedAdd(c.W.Grad, xhat, ckk, g.packIm2colT(gd, outVol, ckk))
		}
		tensor.Put(xhat)

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
	c.trained = false
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
