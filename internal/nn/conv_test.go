package nn

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mdgan/internal/parallel"
	"mdgan/internal/tensor"
)

// im2colSeg is the per-element im2col fill, kept as im2col's oracle:
// row idx of the batched im2col matrix
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

// TestIm2colMatchesReference pins im2col to the per-element im2colSeg
// fill, byte for byte, at batch sizes 1, 3 and 10. col starts as a
// sentinel, so an element im2col fails to write shows.
func TestIm2colMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, tc := range layoutGeoms {
		g := tc.g
		inVol := g.inC * g.inH * g.inW
		ckk := g.inC * g.kh * g.kw
		for _, n := range []int{1, 3, 10} {
			x := randInput(rng, n*inVol).Data
			cols := n * g.outH * g.outW
			got := make([]tensor.Elem, ckk*cols)
			for i := range got {
				got[i] = -7777
			}
			g.im2col(x, inVol, n, got)
			want := make([]tensor.Elem, ckk*cols)
			for idx := 0; idx < ckk; idx++ {
				g.im2colSeg(x, inVol, idx, 0, cols, want[idx*cols:], 1)
			}
			sameElems(t, fmt.Sprintf("%s n=%d", tc.name, n), got, want)
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

// facesCNNConvs builds the three Conv2D and two ConvTranspose2D layers
// of FacesCNN. Both transposed convolutions' backward products and
// conv3's weight gradient have more rows than the skinny kernels' cuts,
// so on the avx512 tier they exercise the packed GEMM.
func facesCNNConvs(rng *rand.Rand) []convCase {
	return []convCase{
		{"faces-conv1", NewConv2D(3, 32, 32, 16, 3, 2, 1, rng), []int{3, 32, 32}},
		{"faces-conv2", NewConv2D(16, 16, 16, 32, 3, 2, 1, rng), []int{16, 16, 16}},
		{"faces-conv3", NewConv2D(32, 8, 8, 64, 3, 2, 1, rng), []int{32, 8, 8}},
		{"faces-convT1", NewConvTranspose2D(256, 8, 8, 128, 5, 2, 2, 1, rng), []int{256, 8, 8}},
		{"faces-convT2", NewConvTranspose2D(128, 16, 16, 3, 5, 2, 2, 1, rng), []int{128, 16, 16}},
	}
}

// BenchmarkConvLayers times ScaledCNN(3, 32, 10)'s and FacesCNN's conv
// layers at b = 10: the forward, the backward for the parameter
// gradients alone (what a discriminator's first layer runs), for the
// input gradient alone (what a generator's feedback pass runs) and for
// both (what every generator layer runs in a generator step). A
// backward needs the workspace its training forward kept, so each one
// follows a forward run with the timer stopped.
func BenchmarkConvLayers(b *testing.B) {
	const batch = 10
	rng := rand.New(rand.NewSource(84))
	for _, tc := range append(scaledCNNConvs(rng), facesCNNConvs(rng)...) {
		l := tc.l
		x := randInput(rng, append([]int{batch}, tc.in...)...)
		grad := randInput(rng, l.Forward(x, false).Shape()...)
		backward := func(want Want) func(b *testing.B) {
			return func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					l.Forward(x, true)
					b.StartTimer()
					l.BackwardWant(grad, want)
				}
			}
		}
		b.Run(tc.name+"/forward", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.Forward(x, true)
			}
		})
		b.Run(tc.name+"/backward-params", backward(WantParams))
		b.Run(tc.name+"/backward-input", backward(WantInput))
		b.Run(tc.name+"/backward", backward(WantParams|WantInput))
	}
}

// BenchmarkConvLayout times im2col and col2im over the four ScaledCNN(3,
// 32, 10) geometries of layoutGeoms at b = 10 — a Conv2D forward's
// gather and its input gradient's scatter, or a ConvTranspose2D's
// backward gather and forward scatter — reporting ns per element of the
// im2col matrix.
func BenchmarkConvLayout(b *testing.B) {
	const n = 10
	rng := rand.New(rand.NewSource(85))
	for _, tc := range layoutGeoms[:4] {
		g := tc.g
		inVol, oHW := g.inC*g.inH*g.inW, g.outH*g.outW
		x := randInput(rng, n*inVol).Data
		col := randInput(rng, g.inC*g.kh*g.kw*n*oHW).Data
		perElem := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(col)), "ns/elem")
		}
		b.Run(tc.name+"/im2col", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.im2col(x, inVol, n, col)
			}
			perElem(b)
		})
		b.Run(tc.name+"/col2im", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					g.col2im(col, n*oHW, j*oHW, x[j*inVol:(j+1)*inVol])
				}
			}
			perElem(b)
		})
	}
}
