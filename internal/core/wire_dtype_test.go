package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/tensor"
)

// Swap-path cross-dtype round-trip: a discriminator's parameters framed
// in either wire dtype must stream back into a peer's storage, exact at
// the native width and within float32 rounding for the narrow one.
func TestSwapParamsCrossDtype(t *testing.T) {
	d := gan.RingMLP().NewGAN(1, 0, 0).D
	rng := rand.New(rand.NewSource(31))
	for _, p := range d.Params() {
		for i := range p.W.Data {
			p.W.Data[i] = tensor.Elem(rng.NormFloat64())
		}
	}

	for _, tc := range []struct {
		name string
		dt   byte
		tol  float64
	}{
		{"native", tensor.NativeDType, 0},
		{"f64", tensor.DTypeF64, tensor.Tol(0, 0)},
		{"f32", tensor.DTypeF32, tensor.Tol(2e-7, 0)},
	} {
		var frames []byte
		for _, p := range d.Params() {
			frames = p.W.AppendBinaryAs(frames, tc.dt)
		}
		peer := gan.RingMLP().NewGAN(2, 0, 0).D
		if err := decodeDiscParamsInto(peer, frames); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dp, pp := d.Params(), peer.Params()
		for i := range dp {
			for j, v := range dp[i].W.Data {
				if diff := math.Abs(float64(v) - float64(pp[i].W.Data[j])); diff > tc.tol {
					t.Fatalf("%s: param %d[%d] deviates by %g (tol %g)", tc.name, i, j, diff, tc.tol)
				}
			}
		}
	}
}

// The parameter codec is byte-identical to framing every tensor by hand
// in the documented order — generator: network then embedding;
// discriminator: trunk, source head, class head — with and without the
// conditional parts, at both wire widths, and the swap encoder fills
// exactly the size the traffic accounting predicts.
func TestParamCodecByteIdentity(t *testing.T) {
	for _, arch := range []struct {
		name string
		m    *gan.GAN
	}{
		{"conditional", gan.ScaledMLP(16).NewGAN(1, 0, 1)},
		{"unconditional", gan.RingMLP().NewGAN(1, 0, 0)},
	} {
		g, d := arch.m.G, arch.m.D
		if cond := arch.name == "conditional"; (g.Embed != nil) != cond || (d.Cls != nil) != cond {
			t.Fatalf("%s arch: embed %v, class head %v", arch.name, g.Embed != nil, d.Cls != nil)
		}
		for _, dt := range []byte{tensor.DTypeF64, tensor.DTypeF32} {
			frames := func(dst []byte, nets ...*nn.Sequential) []byte {
				for _, n := range nets {
					if n == nil {
						continue
					}
					for _, p := range n.Params() {
						dst = p.W.AppendBinaryAs(dst, dt)
					}
				}
				return dst
			}
			wantG := frames(nil, g.Net)
			if g.Embed != nil {
				wantG = g.Embed.W.AppendBinaryAs(wantG, dt)
			}
			wantD := frames(nil, d.Trunk, d.Src, d.Cls)
			for _, tc := range []struct {
				part string
				ps   []*nn.Param
				want []byte
			}{
				{"G", g.Params(), wantG},
				{"D", d.Params(), wantD},
			} {
				if got := nn.AppendParams(nil, tc.ps, dt); !bytes.Equal(got, tc.want) {
					t.Fatalf("%s %s dtype %#x: AppendParams differs from per-tensor frames (%d vs %d bytes)",
						arch.name, tc.part, dt, len(got), len(tc.want))
				}
				if n := nn.EncodedParamSize(tc.ps, dt); n != int64(len(tc.want)) {
					t.Fatalf("%s %s dtype %#x: EncodedParamSize %d, frames are %d bytes",
						arch.name, tc.part, dt, n, len(tc.want))
				}
			}
		}
		for _, p := range []SwapPrecision{SwapNative, SwapFP32} {
			swap := encodeSwap(nil, 9, d, p)
			if int64(len(swap)) != swapPayloadSize(d, p) {
				t.Fatalf("%s %v: swap is %d bytes, swapPayloadSize says %d", arch.name, p, len(swap), swapPayloadSize(d, p))
			}
			if !bytes.Equal(swap[4:], encodeDiscParams(d, p)) {
				t.Fatalf("%s %v: swap body differs from encodeDiscParams", arch.name, p)
			}
		}
	}
}

// The native swap payload size follows the compiled element width: the
// Table III W→W accounting must shrink 2× under the f32 build.
func TestSwapPayloadSizeTracksDtype(t *testing.T) {
	d := gan.RingMLP().NewGAN(1, 0, 0).D
	payload := encodeDiscParams(d, SwapNative)
	if int64(len(payload)) != nn.EncodedParamSize(d.Params(), tensor.NativeDType) {
		t.Fatalf("swap payload %d bytes, EncodedParamSize says %d", len(payload), nn.EncodedParamSize(d.Params(), tensor.NativeDType))
	}
	perParam := int64(0)
	elems := int64(0)
	for _, p := range d.Params() {
		perParam += int64(1 + 4 + 4*p.W.Rank())
		elems += int64(p.W.Size())
	}
	if want := perParam + int64(tensor.ElemBytes)*elems; int64(len(payload)) != want {
		t.Fatalf("swap payload %d bytes, want %d (%d-byte elements)", len(payload), want, tensor.ElemBytes)
	}
}

// The default swap precision ships 4-byte elements regardless of build:
// the payload matches the f32-framing size, decodes into a peer within
// float32 rounding, and swapPayloadSize agrees with what the traffic
// accounting will observe per swap message. This is the cross-build
// contract of the FP32-swap default — a frame produced by either build
// is the same f32 frame, and either build decodes it.
func TestSwapFP32DefaultPayload(t *testing.T) {
	d := gan.RingMLP().NewGAN(1, 0, 0).D
	rng := rand.New(rand.NewSource(33))
	for _, p := range d.Params() {
		for i := range p.W.Data {
			p.W.Data[i] = tensor.Elem(rng.NormFloat64())
		}
	}
	payload := encodeSwap(nil, 7, d, SwapFP32)
	if int64(len(payload)) != 4+nn.EncodedParamSize(d.Params(), tensor.DTypeF32) {
		t.Fatalf("fp32 swap payload %d bytes, want round tag + %d", len(payload), nn.EncodedParamSize(d.Params(), tensor.DTypeF32))
	}
	if int64(len(payload)) != swapPayloadSize(d, SwapFP32) {
		t.Fatalf("swapPayloadSize disagrees with the encoder: %d vs %d",
			swapPayloadSize(d, SwapFP32), len(payload))
	}
	if tensor.ElemBytes == 8 && int64(len(payload)) >= nn.EncodedParamSize(d.Params(), tensor.NativeDType) {
		t.Fatalf("f64 build: fp32 swap payload %d not below native %d",
			len(payload), nn.EncodedParamSize(d.Params(), tensor.NativeDType))
	}
	round, params, err := decodeSwap(payload)
	if err != nil {
		t.Fatal(err)
	}
	if round != 7 {
		t.Fatalf("swap round tag = %d, want 7", round)
	}
	peer := gan.RingMLP().NewGAN(2, 0, 0).D
	if err := decodeDiscParamsInto(peer, params); err != nil {
		t.Fatal(err)
	}
	dp, pp := d.Params(), peer.Params()
	for i := range dp {
		for j, v := range dp[i].W.Data {
			diff := math.Abs(float64(v) - float64(pp[i].W.Data[j]))
			if diff > 2e-7*(1+math.Abs(float64(v))) {
				t.Fatalf("param %d[%d] deviates by %g beyond f32 rounding", i, j, diff)
			}
		}
	}
}

// Feedback cross-dtype: a feedback encoded by the opposite-width build
// (simulated via AppendBinaryAs) decodes under CompressNone framing.
func TestFeedbackCrossDtype(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	f := randFeedback(rng, 6, 9)
	for _, dt := range []byte{tensor.DTypeF64, tensor.DTypeF32} {
		enc := append([]byte{byte(CompressNone)}, f.AppendBinaryAs(nil, dt)...)
		got, err := decodeFeedbackAny(enc, f.Shape())
		if err != nil {
			t.Fatalf("dtype %#x: %v", dt, err)
		}
		tol := 0.0
		if dt == tensor.DTypeF32 {
			tol = 2e-7
		}
		for i, v := range f.Data {
			if math.Abs(float64(v)-float64(got.Data[i])) > tol*(1+math.Abs(float64(v))) {
				t.Fatalf("dtype %#x: element %d deviates", dt, i)
			}
		}
	}
}

func TestWorkerRoundTripAllCompressionsStillTrains(t *testing.T) {
	// End-to-end: each compression mode completes a short K>1 run and
	// produces a finite generator (the dtype-aware wire in real use).
	for _, mode := range []Compression{CompressNone, CompressFP32, CompressTopK} {
		shards := ringShards(3, 120, 61)
		cfg := baseConfig()
		cfg.Iters = 12
		cfg.K = 2
		cfg.Compress = mode
		res, err := Train(shards, gan.RingMLP(), cfg, nil)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for _, v := range nn.ParamVector(res.G.Net.Params()) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v: non-finite generator parameter", mode)
			}
		}
	}
}
