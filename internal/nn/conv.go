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
// GEMM packers (packIm2col, packIm2colT and the channel-major packXhat)
// that produce the values directly inside the packed B panels the
// micro-kernel reads — neither Conv2D's col(x) nor ConvTranspose2D's
// x̂/gcol matrices are ever materialised. The im2col packers and col2im
// work in runs, stretches of one output row whose input columns for a
// patch coordinate (c, ki, kj) are evenly spaced along one input row: a
// run's row and in-image columns are found once, so the per-element work
// is a load and a store. The backward passes run the transposed products
// straight into preallocated gradient buffers, and the few workspaces
// come from the tensor pool and are released before the pass returns.

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

// patch decodes row idx of the im2col matrix into its patch coordinate
// (c, ki, kj); next steps a coordinate to row idx+1 without dividing.
func (g convGeom) patch(idx int) (c, ki, kj int) {
	return idx / (g.kh * g.kw), idx / g.kw % g.kh, idx % g.kw
}

func (g convGeom) next(c, ki, kj int) (int, int, int) {
	if kj++; kj < g.kw {
		return c, ki, kj
	}
	if ki++; ki < g.kh {
		return c, ki, 0
	}
	return c + 1, 0, 0
}

// span returns the in-image part [tlo, thi) of a run of n output
// columns whose first reads input column ix0: column t reads ix0 +
// t·stride. Only the ⌈pad/stride⌉ columns at either end can fall
// outside the image, so it steps in from both ends instead of dividing.
func (g convGeom) span(ix0, n int) (tlo, thi int) {
	for tlo < n && ix0+tlo*g.stride < 0 {
		tlo++
	}
	thi = n
	for thi > tlo && ix0+(thi-1)*g.stride >= g.inW {
		thi--
	}
	return tlo, thi
}

// col2im scatters one column block of a batched col matrix back into an
// image, accumulating overlapping contributions — the adjoint of
// im2col. The in-image output columns [lo, hi) depend on kj only, so
// they are found once per patch coordinate. The visit order stays
// (c, ki, kj, oy, ox) and only out-of-image columns are skipped, so each
// input element's additions run in the order of a per-element loop
// (TestCol2imMatchesReference pins this bitwise).
func (g convGeom) col2im(col []tensor.Elem, rowStride, colOff int, x []tensor.Elem) {
	idx := 0
	for c := 0; c < g.inC; c++ {
		for ki := 0; ki < g.kh; ki++ {
			for kj := 0; kj < g.kw; kj++ {
				row := col[idx*rowStride+colOff : idx*rowStride+colOff+g.outH*g.outW]
				idx++
				lo, hi := g.span(kj-g.pad, g.outW)
				if lo == hi {
					continue
				}
				for oy := 0; oy < g.outH; oy++ {
					iy := oy*g.stride + ki - g.pad
					if iy < 0 || iy >= g.inH {
						continue
					}
					xr := x[(c*g.inH+iy)*g.inW : (c*g.inH+iy+1)*g.inW]
					ix := lo*g.stride + kj - g.pad
					for _, v := range row[oy*g.outW+lo : oy*g.outW+hi] {
						xr[ix] += v
						ix += g.stride
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
// panel rows are (c, ki, kj) patch coordinates. The panel's columns
// split into runs that each lie in one output row; per (run, patch row)
// the input row is tested once and its in-image columns are filled by a
// copy at stride 1, an unrolled gather for eight columns at stride 2
// (every full run of the CIFAR layers at nr = 8) and a strided loop
// otherwise, between zeroed ends. Conv2D consumes x this way; the
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
		oHW := g.outH * g.outW
		c0, ki0, kj0 := g.patch(k0)
		for p := j0; p < j1; {
			i := p / oHW
			oy := (p - i*oHW) / g.outW
			ox := p - i*oHW - oy*g.outW
			run := min(g.outW-ox, j1-p)
			img := xd[i*inVol : (i+1)*inVol]
			c, ki, kj := c0, ki0, kj0
			for o := p - j0; o < (k1-k0)*nr; o += nr {
				d := dst[o : o+run]
				iy := oy*g.stride + ki - g.pad
				ix0 := ox*g.stride + kj - g.pad
				tlo, thi := run, run // a row outside the image is all zero
				if iy >= 0 && iy < g.inH {
					tlo, thi = g.span(ix0, run)
				}
				for t := 0; t < tlo; t++ {
					d[t] = 0
				}
				if tlo < thi {
					src, v := img[(c*g.inH+iy)*g.inW+ix0+tlo*g.stride:], d[tlo:thi]
					switch {
					case g.stride == 1:
						copy(v, src)
					case g.stride == 2 && len(v) == 8:
						s, v := src[:15:15], v[:8:8]
						v[0], v[1], v[2], v[3] = s[0], s[2], s[4], s[6]
						v[4], v[5], v[6], v[7] = s[8], s[10], s[12], s[14]
					default:
						for t := range v {
							v[t] = src[t*g.stride]
						}
					}
				}
				for t := thi; t < run; t++ {
					d[t] = 0
				}
				c, ki, kj = g.next(c, ki, kj)
			}
			p += run
		}
	}
}

// packIm2colT returns the fused dW B-panel packer for ·col(x)ᵀ
// products: panel columns are (c, ki, kj) patch coordinates, panel rows
// are batched output positions. Each panel column decodes its patch
// coordinate once and walks the rows in runs inside one output row,
// testing the input row once per run and gathering its in-image
// columns between zeroed ends, unrolled for eight at stride 2.
func (g convGeom) packIm2colT(xd []tensor.Elem, inVol, ckk int) tensor.BPanelPacker {
	return func(dst []tensor.Elem, k0, k1, j0, nr int) {
		oHW := g.outH * g.outW
		i0 := k0 / oHW
		oy0 := (k0 - i0*oHW) / g.outW
		ox0 := k0 - i0*oHW - oy0*g.outW
		c, ki, kj := g.patch(j0)
		for jj := 0; jj < nr; jj++ {
			if j0+jj >= ckk {
				// Zero-pad the panel columns past the patch edge.
				for o := jj; o < (k1-k0)*nr; o += nr {
					dst[o] = 0
				}
				continue
			}
			o := jj
			i, oy, ox := i0, oy0, ox0
			for p := k0; p < k1; {
				run := min(g.outW-ox, k1-p)
				iy := oy*g.stride + ki - g.pad
				ix0 := ox*g.stride + kj - g.pad
				tlo, thi := run, run
				if iy >= 0 && iy < g.inH {
					tlo, thi = g.span(ix0, run)
				}
				for t := 0; t < tlo; t++ {
					dst[o] = 0
					o += nr
				}
				if tlo < thi {
					src := xd[i*inVol+(c*g.inH+iy)*g.inW+ix0+tlo*g.stride:][:(thi-tlo-1)*g.stride+1]
					if g.stride == 2 && len(src) == 15 {
						d := dst[o : o+7*nr+1]
						d[0], d[nr], d[2*nr], d[3*nr] = src[0], src[2], src[4], src[6]
						d[4*nr], d[5*nr], d[6*nr], d[7*nr] = src[8], src[10], src[12], src[14]
						o += 8 * nr
					} else {
						for ix := 0; ix < len(src); ix += g.stride {
							dst[o] = src[ix]
							o += nr
						}
					}
				}
				for t := thi; t < run; t++ {
					dst[o] = 0
					o += nr
				}
				p += run
				if ox, oy = 0, oy+1; oy == g.outH {
					oy, i = 0, i+1
				}
			}
			c, ki, kj = g.next(c, ki, kj)
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
// (packIm2col, packIm2colT), which produce each patch value directly
// inside the packed B panels the micro-kernel reads.
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
