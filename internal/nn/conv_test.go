package nn

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mdgan/internal/parallel"
	"mdgan/internal/tensor"
)

// im2colSeg is the per-element im2col fill the run-based packers
// replaced, kept as their oracle: row idx of the batched im2col matrix
// restricted to the global column range [p0, p1), written to dst[0],
// dst[stride], dst[2*stride], … with every index and bounds test done
// per element.
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

// refPackIm2col and refPackIm2colT are the forward and dW packers as
// im2colSeg fills: one per panel row, one per panel column.
func (g convGeom) refPackIm2col(xd []tensor.Elem, inVol, cols int) tensor.BPanelPacker {
	return func(dst []tensor.Elem, k0, k1, j0, nr int) {
		j1 := j0 + nr
		if j1 > cols {
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

func (g convGeom) refPackIm2colT(xd []tensor.Elem, inVol, ckk int) tensor.BPanelPacker {
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

// refCol2im is col2im with the bounds of every element tested inside
// the (c, ki, kj, oy, ox) loop.
func (g convGeom) refCol2im(col []tensor.Elem, rowStride, colOff int, x []tensor.Elem) {
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

// layoutGeoms are the geometries the layout loops are checked on: the
// four of ScaledCNN(3, 32, 10) (its two Conv2D forwards and the adjoint
// geometries of its two ConvTranspose2D layers), PaperCNNMNIST's first
// two convolutions, and odd shapes — strides 1 to 3, pads 0 to 3 (wider
// than the kernel reaches, so whole runs fall outside), non-square
// planes and kernels, k = 4.
var layoutGeoms = []struct {
	name string
	g    convGeom
}{
	{"scaled-conv1", newConvGeom(3, 32, 32, 3, 3, 2, 1)},
	{"scaled-conv2", newConvGeom(8, 16, 16, 3, 3, 2, 1)},
	{"scaled-convT1", newConvGeom(8, 16, 16, 5, 5, 2, 2)},
	{"scaled-convT2", newConvGeom(3, 32, 32, 5, 5, 2, 2)},
	{"mnist-conv1", newConvGeom(1, 28, 28, 3, 3, 2, 1)},
	{"mnist-conv2", newConvGeom(16, 14, 14, 3, 3, 1, 1)},
	{"s1p0", newConvGeom(2, 5, 7, 3, 3, 1, 0)},
	{"s1p3", newConvGeom(2, 6, 5, 3, 3, 1, 3)},
	{"s2p0k4", newConvGeom(2, 8, 12, 4, 4, 2, 0)},
	{"s2p3k4", newConvGeom(2, 9, 6, 4, 4, 2, 3)},
	{"s3p1k4", newConvGeom(1, 10, 13, 4, 4, 3, 1)},
	{"s3p2", newConvGeom(3, 11, 8, 3, 3, 3, 2)},
	{"k2x3", newConvGeom(2, 7, 9, 2, 3, 1, 1)},
}

// packAll calls pack on every panel of a (k, n) operand the way the
// GEMM does — nr-wide column panels, kc-deep k blocks — and returns the
// panels concatenated. Every panel starts as a sentinel, so an element a
// packer fails to write shows.
func packAll(pack tensor.BPanelPacker, k, n, kc, nr int) []tensor.Elem {
	var out []tensor.Elem
	for j0 := 0; j0 < n; j0 += nr {
		for k0 := 0; k0 < k; k0 += kc {
			k1 := min(k0+kc, k)
			dst := make([]tensor.Elem, (k1-k0)*nr)
			for i := range dst {
				dst[i] = -7777
			}
			pack(dst, k0, k1, j0, nr)
			out = append(out, dst...)
		}
	}
	return out
}

func sameElems(t *testing.T, what string, got, want []tensor.Elem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameElem(got[i], want[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestIm2colPackersMatchReference pins the run-based packers to the
// per-element im2colSeg fills they replaced, byte for byte, on every
// panel: batch sizes 1, 3 and 10, the three tile widths (so panels end
// mid-row and past the batch edge) and k blocks of 256 and 7 (so
// blocks start mid-row and mid-patch).
func TestIm2colPackersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, tc := range layoutGeoms {
		g := tc.g
		inVol := g.inC * g.inH * g.inW
		ckk := g.inC * g.kh * g.kw
		for _, n := range []int{1, 3, 10} {
			x := randInput(rng, n*inVol).Data
			cols := n * g.outH * g.outW
			for _, nr := range []int{4, 8, 16} {
				for _, kc := range []int{256, 7} {
					at := fmt.Sprintf("%s n=%d nr=%d kc=%d", tc.name, n, nr, kc)
					sameElems(t, at+" forward",
						packAll(g.packIm2col(x, inVol, cols), ckk, cols, kc, nr),
						packAll(g.refPackIm2col(x, inVol, cols), ckk, cols, kc, nr))
					sameElems(t, at+" dW",
						packAll(g.packIm2colT(x, inVol, ckk), cols, ckk, kc, nr),
						packAll(g.refPackIm2colT(x, inVol, ckk), cols, ckk, kc, nr))
				}
			}
		}
	}
}

// TestCol2imMatchesReference pins col2im to the per-element loop
// bitwise, scattering every image of a batch into a non-zero x so that
// each element's addition chain, not just its set of terms, must match.
func TestCol2imMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for _, tc := range layoutGeoms {
		g := tc.g
		inVol := g.inC * g.inH * g.inW
		oHW := g.outH * g.outW
		for _, n := range []int{1, 3, 10} {
			col := randInput(rng, g.inC*g.kh*g.kw*n*oHW).Data
			x := randInput(rng, n*inVol).Data
			want := append([]tensor.Elem(nil), x...)
			for i := 0; i < n; i++ {
				g.col2im(col, n*oHW, i*oHW, x[i*inVol:(i+1)*inVol])
				g.refCol2im(col, n*oHW, i*oHW, want[i*inVol:(i+1)*inVol])
			}
			sameElems(t, fmt.Sprintf("%s n=%d", tc.name, n), x, want)
		}
	}
}

// convCase is a conv layer under test with its per-image input shape.
type convCase struct {
	name string
	l    interface {
		Layer
		wantBackwarder
	}
	in []int
}

// scaledCNNConvs builds the two Conv2D and two ConvTranspose2D layers of
// ScaledCNN(3, 32, 10).
func scaledCNNConvs(rng *rand.Rand) []convCase {
	return []convCase{
		{"conv1", NewConv2D(3, 32, 32, 8, 3, 2, 1, rng), []int{3, 32, 32}},
		{"conv2", NewConv2D(8, 16, 16, 16, 3, 2, 1, rng), []int{8, 16, 16}},
		{"convT1", NewConvTranspose2D(16, 8, 8, 8, 5, 2, 2, 1, rng), []int{16, 8, 8}},
		{"convT2", NewConvTranspose2D(8, 16, 16, 3, 5, 2, 2, 1, rng), []int{8, 16, 16}},
	}
}

// TestConvBitwiseAcrossGOMAXPROCS is the layer-level form of the
// benchmark's cross-GOMAXPROCS checksum: ScaledCNN(3, 32, 10)'s conv
// layers at b = 10 must give the same forward output, input gradient
// and accumulated and written parameter gradients, bit for bit, whether
// every region runs inline or fans out over four procs.
func TestConvBitwiseAcrossGOMAXPROCS(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		parallel.SetMaxProcs(0)
	}()
	const b = 10
	rng := rand.New(rand.NewSource(83))
	for _, tc := range scaledCNNConvs(rng) {
		l := tc.l
		x := randInput(rng, append([]int{b}, tc.in...)...)
		out := l.Forward(x, false)
		grad := randInput(rng, out.Shape()...)
		run := func() (res [][]tensor.Elem) {
			keep := func(ts ...*tensor.Tensor) {
				for _, t := range ts {
					res = append(res, append([]tensor.Elem(nil), t.Data...))
				}
			}
			for _, p := range l.Params() {
				p.Grad.Zero()
			}
			keep(l.Forward(x, true))
			keep(l.BackwardWant(grad, WantParams|WantInput))
			for _, p := range l.Params() {
				keep(p.Grad)
			}
			l.Forward(x, true)
			l.BackwardWant(grad, WantParams|WantWrite)
			for _, p := range l.Params() {
				keep(p.Grad)
			}
			return res
		}
		runtime.GOMAXPROCS(1)
		parallel.SetMaxProcs(1)
		want := run()
		runtime.GOMAXPROCS(4)
		parallel.SetMaxProcs(4)
		got := run()
		for i, name := range []string{"out", "dx", "dW", "dB", "written dW", "written dB"} {
			sameElems(t, fmt.Sprintf("%s %s at GOMAXPROCS=4 vs 1", tc.name, name), got[i], want[i])
		}
	}
}

// BenchmarkConvLayers times ScaledCNN(3, 32, 10)'s conv layers at
// b = 10: the forward, the backward for the parameter gradients alone
// (what a discriminator's first layer runs) and for the input gradient
// alone (what a generator's feedback pass runs).
func BenchmarkConvLayers(b *testing.B) {
	const batch = 10
	rng := rand.New(rand.NewSource(84))
	for _, tc := range scaledCNNConvs(rng) {
		l := tc.l
		x := randInput(rng, append([]int{batch}, tc.in...)...)
		grad := randInput(rng, l.Forward(x, true).Shape()...)
		// Backward refuses to run without a training forward; re-arm the
		// flag instead of timing a forward per backward.
		arm := func() {
			switch c := l.(type) {
			case *Conv2D:
				c.trained = true
			case *ConvTranspose2D:
				c.trained = true
			}
		}
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"forward", func() { l.Forward(x, true) }},
			{"backward-params", func() { arm(); l.BackwardWant(grad, WantParams) }},
			{"backward-input", func() { arm(); l.BackwardWant(grad, WantInput) }},
		} {
			b.Run(tc.name+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.run()
				}
			})
		}
	}
}
