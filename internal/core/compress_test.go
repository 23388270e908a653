package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mdgan/internal/tensor"
)

// encodeFeedbackCompressed is the unpooled feedback encoder the codec
// tests and fuzz targets call: one exact-size allocation per frame.
func encodeFeedbackCompressed(f *tensor.Tensor, mode Compression) []byte {
	return encodeFeedback(nil, f, mode)
}

// Regression (PR 3): decodeFeedbackAny used to bound only the decoded
// VOLUME, so a reshaped feedback — same element count, different shape —
// decoded successfully and silently mis-aligned against the generator
// batch it answers. Every mode must now reject shape mismatches.
func TestDecodeFeedbackRejectsReshapedFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := randFeedback(rng, 4, 6)
	for _, mode := range []Compression{CompressNone, CompressFP32, CompressTopK} {
		enc := encodeFeedbackCompressed(f, mode)
		if _, err := decodeFeedbackAny(enc, f.Shape()); err != nil {
			t.Fatalf("%v: matching shape rejected: %v", mode, err)
		}
		for _, want := range [][]int{{6, 4}, {2, 12}, {24}, {4, 6, 1}} {
			if _, err := decodeFeedbackAny(enc, want); err == nil {
				t.Fatalf("%v: shape (4,6) decoded against expected %v without error", mode, want)
			}
		}
		// Smaller AND larger expected volumes must also fail.
		if _, err := decodeFeedbackAny(enc, []int{4, 5}); err == nil {
			t.Fatalf("%v: volume overrun accepted", mode)
		}
		if _, err := decodeFeedbackAny(enc, []int{4, 7}); err == nil {
			t.Fatalf("%v: volume underrun accepted", mode)
		}
	}
}

// Regression (PR 3): the FP32/TopK encoders were built from per-element
// bytes.Buffer writes; they are now exact-size single-allocation
// appenders (TopK adds one allocation for its selection index).
func TestEncodeFeedbackAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := randFeedback(rng, 16, 784)
	for _, tc := range []struct {
		mode Compression
		want float64
	}{
		{CompressNone, 1},
		{CompressFP32, 1},
		{CompressTopK, 2},
	} {
		got := testing.AllocsPerRun(20, func() {
			encodeFeedbackCompressed(f, tc.mode)
		})
		if got > tc.want {
			t.Errorf("%v: %v allocs per encode, want <= %v", tc.mode, got, tc.want)
		}
	}
}

func TestEncodedFeedbackSizesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := randFeedback(rng, 8, 32)
	if got, want := len(encodeFeedbackCompressed(f, CompressNone)), 1+int(f.EncodedSize()); got != want {
		t.Fatalf("none: %d bytes, want %d", got, want)
	}
	if got, want := len(encodeFeedbackCompressed(f, CompressFP32)), 1+int(f.EncodedSizeAs(tensor.DTypeF32)); got != want {
		t.Fatalf("fp32: %d bytes, want %d", got, want)
	}
	k := int(float64(f.Size()) * topKFraction)
	if got, want := len(encodeFeedbackCompressed(f, CompressTopK)), 1+4+4*2+4+8*k; got != want {
		t.Fatalf("topk: %d bytes, want %d", got, want)
	}
}

// topKIndices' quickselect must agree with the straightforward
// sort-everything reference for arbitrary data and k.
func TestTopKIndicesMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		data := make([]tensor.Elem, n)
		for i := range data {
			// Small integer magnitudes exercise ties.
			data[i] = tensor.Elem(rng.Intn(9) - 4)
		}
		k := 1 + rng.Intn(n)
		got := topKIndices(data, k)
		if len(got) != k {
			t.Fatalf("n=%d k=%d: got %d indices", n, k, len(got))
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("indices not ascending: %v", got)
		}
		// The selected set must contain the k largest magnitudes: the
		// smallest selected magnitude must be >= the largest unselected.
		sel := make(map[int]bool, k)
		minSel := tensor.Elem(0)
		for i, idx := range got {
			sel[idx] = true
			if m := absE(data[idx]); i == 0 || m < minSel {
				minSel = m
			}
		}
		for i := range data {
			if !sel[i] && absE(data[i]) > minSel {
				t.Fatalf("n=%d k=%d: unselected |%v| beats selected min %v", n, k, data[i], minSel)
			}
		}
	}
}

// Legacy pre-dtype feedback frames (CompressNone around a headerless
// rank-first tensor frame) still decode — the corpus a deployed mixed
// fleet or an old fuzz corpus would replay.
func TestDecodeFeedbackLegacyFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := randFeedback(rng, 3, 5)
	legacy := []byte{byte(CompressNone)}
	legacy = binary.LittleEndian.AppendUint32(legacy, 2)
	legacy = binary.LittleEndian.AppendUint32(legacy, 3)
	legacy = binary.LittleEndian.AppendUint32(legacy, 5)
	for _, v := range f.Data {
		legacy = appendFloat64(legacy, float64(v))
	}
	got, err := decodeFeedbackAny(legacy, f.Shape())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Shape(), f.Shape()) || !got.Equal(f, tensor.Tol(0, 1e-7)) {
		t.Fatal("legacy frame did not round-trip")
	}
}

func appendFloat64(dst []byte, v float64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	return append(dst, tmp[:]...)
}
