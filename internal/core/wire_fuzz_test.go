package core

// Fuzz and hostile-frame tests for the wire decoders: truncated frames,
// oversized length prefixes and garbage payloads must produce errors —
// never a panic, and never an allocation proportional to a fabricated
// length field. The seed corpus covers each hand-written failure class
// so `go test` (without -fuzz) already exercises them.

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/tensor"
)

// validBatchesPayload builds a well-formed batches frame to seed the
// fuzzer (and to mutate into near-valid corruptions).
func validBatchesPayload() []byte {
	xd := tensor.New(2, 3)
	xg := tensor.New(2, 3)
	for i := range xd.Data {
		xd.Data[i] = tensor.Elem(i) * 0.25
		xg.Data[i] = -tensor.Elem(i)
	}
	return encodeBatches(batchesMsg{
		Xd: xd, Ld: []int{0, 1},
		Xg: xg, Lg: []int{1, 0},
		SwapTo: "worker3",
	})
}

func FuzzDecodeBatches(f *testing.F) {
	valid := validBatchesPayload()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                  // truncated mid-frame
	f.Add(valid[:3])                                             // truncated header
	f.Add([]byte{})                                              // empty
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF))     // absurd rank
	huge := binary.LittleEndian.AppendUint32(nil, 2)             // rank 2
	huge = binary.LittleEndian.AppendUint32(huge, 0x7FFFFFFF)    // dim bomb
	huge = binary.LittleEndian.AppendUint32(huge, 0x7FFFFFFF)    // dim bomb
	f.Add(huge)                                                  // oversized volume
	strBomb := append([]byte(nil), valid[:len(valid)-8]...)      // keep tensors+labels
	strBomb = binary.LittleEndian.AppendUint32(strBomb, 1<<31-1) // swap-string length bomb
	f.Add(strBomb)

	f.Fuzz(func(t *testing.T, p []byte) {
		var m batchesMsg
		_ = decodeBatches(p, &m) // must never panic
		// Decoding again into the same message exercises the PR-1
		// buffer-reuse path (tensors and label slices overwritten in
		// place) against whatever state the first decode left behind.
		_ = decodeBatches(p, &m)
	})
}

func FuzzDecodeFeedback(f *testing.F) {
	fb := tensor.New(4, 6)
	for i := range fb.Data {
		fb.Data[i] = tensor.Elem(i%7) - 3
	}
	for _, mode := range []Compression{CompressNone, CompressFP32, CompressTopK} {
		enc := encodeFeedbackCompressed(fb, mode)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	// Dtype-byte coverage: the non-native wire width and the legacy
	// pre-dtype framing both decode through the same entry point.
	other := append([]byte{byte(CompressNone)}, fb.AppendBinaryAs(nil, tensor.DTypeF32)...)
	f.Add(other)
	f.Add(other[:len(other)/3])
	legacy := []byte{byte(CompressNone), 2, 0, 0, 0, 4, 0, 0, 0, 6, 0, 0, 0}
	legacy = append(legacy, make([]byte, 8*24)...) // zero-valued f64 payload
	f.Add(legacy)
	f.Add([]byte{byte(CompressTopK), 1, 0, 0, 0, 255, 255, 255, 255})    // dim bomb
	f.Add([]byte{byte(CompressNone), tensor.DTypeF32, 9, 0, 0, 0})       // f32 frame, absurd rank
	f.Add([]byte{byte(CompressFP32), tensor.DTypeF64, 1, 0, 0, 0, 2, 0}) // truncated payload
	f.Fuzz(func(t *testing.T, p []byte) {
		fn, err := decodeFeedbackAny(p, fb.Shape()) // must never panic
		if err == nil && fn.Size() > fb.Size() {
			t.Fatalf("decoded %d elements past the %d-element bound", fn.Size(), fb.Size())
		}
	})
}

// FuzzTensorReadInPlace drives the swap-path primitive (a worker
// adopting a peer's discriminator decodes frames straight into its own
// parameter storage) with arbitrary bytes.
func FuzzTensorReadInPlace(f *testing.F) {
	ref := tensor.New(3, 4)
	for i := range ref.Data {
		ref.Data[i] = tensor.Elem(i)
	}
	valid := ref.AppendBinary(nil)
	f.Add(valid)
	f.Add(valid[:5])
	f.Add(ref.AppendBinaryAs(nil, tensor.DTypeF32)) // non-native wire width
	f.Add(ref.AppendBinaryAs(nil, tensor.DTypeF64))
	legacy := binary.LittleEndian.AppendUint32(nil, 2) // pre-dtype framing
	legacy = binary.LittleEndian.AppendUint32(legacy, 3)
	legacy = binary.LittleEndian.AppendUint32(legacy, 4)
	f.Add(append(legacy, make([]byte, 8*12)...))
	f.Add(binary.LittleEndian.AppendUint32(nil, 9))   // rank out of range
	f.Add([]byte{tensor.DTypeF32, 2, 0, 0, 0, 255})   // f32 header, truncated dims
	f.Add([]byte{tensor.DTypeF64})                    // dtype byte alone
	f.Add([]byte{0xF0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 2}) // near-miss dtype byte → legacy rank garbage
	f.Fuzz(func(t *testing.T, p []byte) {
		dst := tensor.New(3, 4)
		read, err := dst.ReadInPlace(bytes.NewReader(p)) // must never panic
		// CheckFrame is ReadInPlace's dry run: same verdict, same length.
		size, cerr := tensor.New(3, 4).CheckFrame(p)
		if (err == nil) != (cerr == nil) || (err == nil && int64(size) != read) {
			t.Fatalf("CheckFrame says (%d, %v), ReadInPlace (%d, %v)", size, cerr, read, err)
		}
		var fresh tensor.Tensor
		_, _ = fresh.ReadFrom(bytes.NewReader(p)) // must never panic
	})
}

// swapTestDisc is a small discriminator with distinct, recognisable
// parameter values, and corruptSwaps the ways its swap payload can
// arrive damaged: cut short by a byte or by a whole frame, followed by
// a stray byte, or with the last frame announcing another shape.
func swapTestDisc(seed int64) *gan.Discriminator {
	d := gan.RingMLP().NewGAN(seed, nn.GenLossNonSaturating, 0).D
	for i, p := range d.Params() {
		for j := range p.W.Data {
			p.W.Data[j] = tensor.Elem(seed) + tensor.Elem(i) + tensor.Elem(j)/1024
		}
	}
	return d
}

func corruptSwaps(d *gan.Discriminator) map[string][]byte {
	valid := encodeDiscParams(d, SwapNative)
	ps := d.Params()
	first, last := ps[0].W, ps[len(ps)-1].W
	head := append([]byte(nil), valid[:len(valid)-int(last.EncodedSize())]...)
	// The same bytes with the first frame's two dims swapped: every
	// length still adds up, only the shape is wrong.
	transposed := append([]byte(nil), valid...)
	copy(transposed, tensor.New(first.Dim(1), first.Dim(0)).AppendBinary(nil)[:1+4+8])
	return map[string][]byte{
		"truncated by one byte":     valid[:len(valid)-1],
		"truncated by one tensor":   head,
		"one trailing byte":         append(append([]byte(nil), valid...), 0),
		"wrong shape in last frame": tensor.New(last.Size()+1, 1).AppendBinary(head),
		"first frame transposed":    transposed,
	}
}

// TestDecodeSwapIsAllOrNothing pins what every swap site in worker.go
// assumes: a swap payload that does not decode leaves the worker's own
// discriminator exactly as it was. A truncated payload used to overwrite
// the leading parameters before failing on the missing one, and a
// trailing byte used to be accepted.
func TestDecodeSwapIsAllOrNothing(t *testing.T) {
	peer := swapTestDisc(7)
	for name, payload := range corruptSwaps(peer) {
		t.Run(name, func(t *testing.T) {
			own := swapTestDisc(3)
			before := encodeDiscParams(own, SwapNative)
			if err := decodeDiscParamsInto(own, payload); err == nil {
				t.Fatal("corrupt swap payload decoded without error")
			}
			if !bytes.Equal(encodeDiscParams(own, SwapNative), before) {
				t.Fatal("a failed swap decode modified the worker's own discriminator")
			}
		})
	}
	own := swapTestDisc(3)
	for _, prec := range []SwapPrecision{SwapNative, SwapFP32} {
		if err := decodeDiscParamsInto(own, encodeDiscParams(peer, prec)); err != nil {
			t.Fatalf("valid swap payload (precision %v): %v", prec, err)
		}
	}
	if !bytes.Equal(encodeDiscParams(own, SwapNative), encodeDiscParams(peer, SwapNative)) {
		t.Fatal("a valid swap did not adopt the peer's parameters")
	}
}

// FuzzDecodeSwapParams holds the same property over arbitrary bytes:
// the decode either succeeds or leaves the discriminator bitwise
// untouched, and never panics.
func FuzzDecodeSwapParams(f *testing.F) {
	peer := swapTestDisc(7)
	f.Add(encodeDiscParams(peer, SwapNative))
	f.Add(encodeDiscParams(peer, SwapFP32))
	for _, p := range corruptSwaps(peer) {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		own := swapTestDisc(3)
		before := encodeDiscParams(own, SwapNative)
		if err := decodeDiscParamsInto(own, p); err != nil && !bytes.Equal(encodeDiscParams(own, SwapNative), before) {
			t.Fatalf("failed decode (%v) modified the discriminator", err)
		}
	})
}

// TestHostileFramesDoNotOverAllocate pins the bounds checks: a frame
// whose length prefixes claim gigabytes, backed by a few bytes of
// payload, must error without the decoder ever allocating storage for
// the claimed size.
func TestHostileFramesDoNotOverAllocate(t *testing.T) {
	hostile := [][]byte{
		func() []byte { // tensor dim bomb: claims 2^31-1 × 2 floats
			b := binary.LittleEndian.AppendUint32(nil, 2)
			b = binary.LittleEndian.AppendUint32(b, 0x7FFFFFFF)
			b = binary.LittleEndian.AppendUint32(b, 2)
			return append(b, make([]byte, 64)...)
		}(),
		func() []byte { // label-count bomb after a tiny valid tensor
			x := tensor.New(1, 1)
			b := x.AppendBinary(nil)
			return binary.LittleEndian.AppendUint32(b, 0xFFFFFFF0)
		}(),
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, p := range hostile {
		var m batchesMsg
		if err := decodeBatches(p, &m); err == nil {
			t.Fatal("hostile frame decoded without error")
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("hostile frames allocated %d bytes; bounds checks must reject before allocating", grew)
	}
}

// TestDecodeBatchesTruncationsError walks every prefix of a valid frame
// and demands a clean error (or, for the empty suffix boundary, a
// successful decode only at full length).
func TestDecodeBatchesTruncationsError(t *testing.T) {
	valid := validBatchesPayload()
	var m batchesMsg
	if err := decodeBatches(valid, &m); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	for cut := 0; cut < len(valid); cut++ {
		var m batchesMsg
		if err := decodeBatches(valid[:cut], &m); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(valid))
		}
	}
}
