package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"mdgan/internal/tensor"
)

// Compression of the W→C error feedback, the extension the paper
// sketches in §VII.2: "methods such as Adacomp propose to communicate
// updates based on gradient staleness, which constitutes a form of data
// compression … those methods may be applied … to the error feedback
// messages sent by workers to the server."
//
// Two schemes are implemented:
//
//   - CompressFP32 — ship the feedback as float32 on the wire (a 2×
//     reduction when the compiled storage is float64, a no-op reduction
//     under the f32 build; negligible accuracy impact either way:
//     feedbacks are consumed by one Adam step);
//   - CompressTopK — transmit only the q highest-magnitude entries as
//     sparse (index, float32) pairs, zeros elsewhere (Adacomp-style
//     selective update; large reduction for peaked gradients).
//
// The wire format prefixes one mode byte so the server can decode
// whatever each worker sends. A worker encodes its frame into a buffer
// from the run's feedback pool (framePools), or one exact-size
// allocation when the pool has none (TopK adds one more for the
// selection index). The server decodes into pooled tensor storage and
// puts each star frame it has decoded back into that pool, so over an
// in-process transport a steady-state round allocates no payload-sized
// feedback buffer. Swap frames are pooled the same way between two
// workers: the sender draws from the run's swap pool, and the receiver,
// the only goroutine that decodes the frame, puts it back right after
// decoding its parameters (worker.triage).

// Compression selects the feedback wire encoding.
type Compression int

// Available feedback compression modes.
const (
	CompressNone Compression = iota
	CompressFP32
	CompressTopK
)

// String implements fmt.Stringer.
func (c Compression) String() string {
	switch c {
	case CompressNone:
		return "none"
	case CompressFP32:
		return "fp32"
	case CompressTopK:
		return "topk"
	default:
		return fmt.Sprintf("Compression(%d)", int(c))
	}
}

// topKFraction is the fraction of entries CompressTopK keeps.
const topKFraction = 0.1

// encodeFeedback frames F_n under the given mode into a buffer from
// pool.
func encodeFeedback(pool framePool, f *tensor.Tensor, mode Compression) []byte {
	return appendFeedbackCompressed(pool.get(int(feedbackEncodedSize(f, mode))), f, mode)
}

// feedbackEncodedSize returns the exact encoded size of F_n under mode.
func feedbackEncodedSize(f *tensor.Tensor, mode Compression) int64 {
	switch mode {
	case CompressNone:
		return 1 + f.EncodedSize()
	case CompressFP32:
		return 1 + f.EncodedSizeAs(tensor.DTypeF32)
	case CompressTopK:
		k := int(float64(f.Size()) * topKFraction)
		if k < 1 {
			k = 1
		}
		return int64(1 + 4 + 4*f.Rank() + 4 + 8*k)
	default:
		panic(fmt.Sprintf("core: unknown compression %d", mode))
	}
}

// appendFeedbackCompressed appends F_n's frame under the given mode —
// the allocation-free form the aggregate encoder builds its multi-entry
// payloads from (size the destination with feedbackEncodedSize).
func appendFeedbackCompressed(out []byte, f *tensor.Tensor, mode Compression) []byte {
	switch mode {
	case CompressNone:
		out = append(out, byte(CompressNone))
		return f.AppendBinary(out)
	case CompressFP32:
		// The payload is the ordinary tensor framing pinned to the f32
		// wire dtype, decoded by the same tensor decoder as
		// CompressNone.
		out = append(out, byte(CompressFP32))
		return f.AppendBinaryAs(out, tensor.DTypeF32)
	case CompressTopK:
		k := int(float64(f.Size()) * topKFraction)
		if k < 1 {
			k = 1
		}
		idx := topKIndices(f.Data, k)
		shape := f.Shape()
		out = append(out, byte(CompressTopK))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(shape)))
		for _, d := range shape {
			out = binary.LittleEndian.AppendUint32(out, uint32(d))
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(idx)))
		for _, i := range idx {
			out = binary.LittleEndian.AppendUint32(out, uint32(i))
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(f.Data[i])))
		}
		return out
	default:
		panic(fmt.Sprintf("core: unknown compression %d", mode))
	}
}

// shapeVol returns the volume of a shape.
func shapeVol(shape []int) int {
	vol := 1
	for _, d := range shape {
		vol *= d
	}
	return vol
}

// decodeFeedbackAny decodes a feedback regardless of its mode. The
// decoded tensor must have exactly the shape of the generated batch the
// feedback answers (`want`): a feedback is consumed row-for-row against
// that batch, so a frame of merely equal volume but different shape
// would silently mis-align against the generator's samples. The volume
// of want also bounds every decode-side allocation, so a corrupt or
// hostile frame errors out before it can over-allocate. The result is
// pooled storage (tensor.Get): a caller done with it may Put it.
func decodeFeedbackAny(p []byte, want []int) (*tensor.Tensor, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("core: empty feedback")
	}
	mode := Compression(p[0])
	r := bytes.NewReader(p[1:])
	switch mode {
	case CompressNone, CompressFP32:
		f := tensor.Get(want...)
		if _, err := f.ReadInPlace(r); err != nil {
			tensor.Put(f)
			return nil, fmt.Errorf("core: decode %s feedback: %w", mode, err)
		}
		return f, nil
	case CompressTopK:
		shape, err := readShapeBounded(r, shapeVol(want))
		if err != nil {
			return nil, err
		}
		if !slices.Equal(shape, want) {
			return nil, fmt.Errorf("core: feedback shape %v, want %v", shape, want)
		}
		n, err := readCount(r, "topk count", 8)
		if err != nil {
			return nil, err
		}
		f := tensor.GetZeroed(shape...)
		var tmp [8]byte
		for j := 0; j < n; j++ {
			if _, err := io.ReadFull(r, tmp[:]); err != nil {
				tensor.Put(f)
				return nil, fmt.Errorf("core: decode topk entry: %w", err)
			}
			i := int(binary.LittleEndian.Uint32(tmp[:4]))
			if i < 0 || i >= f.Size() {
				tensor.Put(f)
				return nil, fmt.Errorf("core: topk index %d out of range", i)
			}
			f.Data[i] = tensor.Elem(math.Float32frombits(binary.LittleEndian.Uint32(tmp[4:])))
		}
		return f, nil
	default:
		return nil, fmt.Errorf("core: unknown feedback compression byte %d", p[0])
	}
}

// readShapeBounded decodes a shape whose volume must not exceed maxVol,
// rejecting oversized or overflowing dimension products before any
// allocation proportional to them happens.
func readShapeBounded(r *bytes.Reader, maxVol int) ([]int, error) {
	rank, err := readU32(r, "shape rank")
	if err != nil {
		return nil, err
	}
	if rank <= 0 || rank > 8 {
		return nil, fmt.Errorf("core: implausible shape rank %d", rank)
	}
	shape := make([]int, rank)
	vol := 1
	for i := range shape {
		if shape[i], err = readU32(r, "shape dim"); err != nil {
			return nil, err
		}
		if shape[i] <= 0 {
			return nil, fmt.Errorf("core: non-positive shape dim")
		}
		if shape[i] > maxVol/vol {
			return nil, fmt.Errorf("core: shape volume exceeds expected %d elements", maxVol)
		}
		vol *= shape[i]
	}
	return shape, nil
}

// topKIndices returns the indices of the k largest-magnitude entries in
// ascending index order (ascending indices compress better and decode
// cache-friendly). It allocates only the index permutation: selection
// is an in-place quickselect, so the encoder's total footprint stays at
// two allocations per frame.
func topKIndices(data []tensor.Elem, k int) []int {
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	if k >= len(data) {
		return idx
	}
	quickSelectTopK(data, idx, k)
	top := idx[:k]
	slices.Sort(top)
	return top
}

// absE is math.Abs over the compiled element type.
func absE(v tensor.Elem) tensor.Elem {
	if v < 0 {
		return -v
	}
	return v
}

// quickSelectTopK partially orders idx so its first k entries index the
// k largest-magnitude values of data (in unspecified order), using
// median-of-three Hoare partitioning.
func quickSelectTopK(data []tensor.Elem, idx []int, k int) {
	lo, hi := 0, len(idx)-1
	for lo < hi {
		// Median-of-three pivot on |data|, moved to idx[lo].
		mid := lo + (hi-lo)/2
		if absE(data[idx[mid]]) > absE(data[idx[lo]]) {
			idx[lo], idx[mid] = idx[mid], idx[lo]
		}
		if absE(data[idx[hi]]) > absE(data[idx[lo]]) {
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
		if absE(data[idx[mid]]) > absE(data[idx[hi]]) {
			idx[mid], idx[hi] = idx[hi], idx[mid]
		}
		pivot := absE(data[idx[hi]])
		// Partition descending by magnitude: entries > pivot first.
		p := lo
		for i := lo; i < hi; i++ {
			if absE(data[idx[i]]) > pivot {
				idx[p], idx[i] = idx[i], idx[p]
				p++
			}
		}
		idx[p], idx[hi] = idx[hi], idx[p]
		switch {
		case p == k || p == k-1:
			return
		case p > k:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
}
