package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"mdgan/internal/tensor"
)

// Wire encoding of hierarchical feedback aggregation (the tree
// topology's W→W / W→C frames). An aggregate frame carries the SUM of
// its contributors' feedbacks per generated-batch index, plus the
// contributor names, so the server can (a) account every worker the
// frame covers for round completion and suspect bookkeeping — after
// checking the names against the sender's planned subtree — and (b)
// recover the paper's mean: its apply scales each group's mean by
// groupSize/received, which for partial sums is the global per-batch
// sum over the contributor count. Summing is associative, so workers'
// partial sums reduce to the same update as the flat star up to
// floating-point reassociation (pinned within tensor.Tol by
// TestTreeAggregationMatchesFlat); the server's own merge adds none
// (TestDepthOneTreeMatchesFlatBitwise).
//
// Frame layout (little-endian):
//
//	u32 round
//	u32 nEntries, then per entry:
//	  u32 gIdx                     generated-batch index of the sum
//	  u32 nContrib, nContrib × (u32 len ++ name bytes)
//	  u32 frameLen ++ feedback frame (compress.go framing of the sum)
//
// The skip frame (msgAggSkip, server → aggregator) is u32 round ++ one
// length-prefixed child name: "this child's dispatch failed, stop
// waiting for its contribution".
//
// Every length prefix is bounded against the remaining payload and the
// expected feedback shape before any proportional allocation, in the
// same style as decodeBatches/decodeFeedbackAny, and fuzzed by
// FuzzDecodeAggregate.

// Aggregation message type tags.
const (
	msgAgg     = "agg"     // W→{W,C}: reduced feedback contributions
	msgAggSkip = "aggskip" // C→W: released child slot (failed dispatch)
)

// maxAggEntries bounds the per-frame entry count: entries are keyed by
// generated-batch index, and k never exceeds the cluster size, so any
// frame claiming more is hostile or corrupt.
const maxAggEntries = 4096

// aggEntry is one reduced batch group: the sum of Contribs' feedbacks
// for generated batch GIdx.
type aggEntry struct {
	GIdx     int
	Contribs []string
	Sum      *tensor.Tensor
}

// aggAccum is an aggregator worker's reduction state: feedback sums per
// generated-batch index (the server keeps none — it groups the decoded
// entries directly). The sum tensors come from the workspace pool and
// are recycled by reset(), so a steady-state aggregation round reuses
// its buffers — the AllocsPerRun budget in aggwire_test.go pins that.
type aggAccum struct {
	entries []aggEntry
	byIdx   map[int]int
}

// reset clears the accumulator for a new round, returning the previous
// round's pooled sums. Entry slices keep their backing storage.
func (a *aggAccum) reset() {
	for i := range a.entries {
		tensor.Put(a.entries[i].Sum)
		a.entries[i].Sum = nil
		a.entries[i].Contribs = a.entries[i].Contribs[:0]
	}
	a.entries = a.entries[:0]
	if a.byIdx == nil {
		a.byIdx = make(map[int]int)
	} else {
		clear(a.byIdx)
	}
}

// add merges one contribution into batch gIdx: the sum picks up f (a
// SUM itself when merging a child frame, a single feedback when adding
// the aggregator's own), and names joins the contributor list. f is
// only read — the accumulator owns pooled copies, never retains its
// arguments (the clone-or-corrupt contract tests pin this).
func (a *aggAccum) add(gIdx int, names []string, f *tensor.Tensor) {
	i, ok := a.byIdx[gIdx]
	if !ok {
		i = len(a.entries)
		if i < cap(a.entries) {
			a.entries = a.entries[:i+1]
			a.entries[i].GIdx = gIdx
		} else {
			a.entries = append(a.entries, aggEntry{GIdx: gIdx})
		}
		a.entries[i].GIdx = gIdx
		a.entries[i].Sum = tensor.GetZeroed(f.Shape()...)
		a.byIdx[gIdx] = i
	}
	e := &a.entries[i]
	e.Sum.AxpyInPlace(1, f)
	e.Contribs = append(e.Contribs, names...)
}

// encode frames the accumulated entries for round, sorted by batch
// index so the frame bytes are independent of merge discovery order.
// The buffer is freshly allocated on every call, never pooled: the net
// retains payload references (ChannelNet hands the slice through a
// channel), and under quorum collect the parent can still be holding
// round R's frame when round R+1 encodes — reuse would corrupt the
// in-flight frame.
func (a *aggAccum) encode(round int, mode Compression) []byte {
	sort.Slice(a.entries, func(i, j int) bool { return a.entries[i].GIdx < a.entries[j].GIdx })
	for i := range a.entries {
		a.byIdx[a.entries[i].GIdx] = i
	}
	size := int64(8)
	for i := range a.entries {
		e := &a.entries[i]
		size += 8 + 4 + feedbackEncodedSize(e.Sum, mode)
		for _, name := range e.Contribs {
			size += int64(4 + len(name))
		}
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, uint32(round))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(a.entries)))
	for i := range a.entries {
		e := &a.entries[i]
		out = binary.LittleEndian.AppendUint32(out, uint32(e.GIdx))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(e.Contribs)))
		for _, name := range e.Contribs {
			out = appendString(out, name)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(feedbackEncodedSize(e.Sum, mode)))
		out = appendFeedbackCompressed(out, e.Sum, mode)
	}
	return out
}

// aggRound peeks the round tag every aggregation frame (msgAgg and
// msgAggSkip alike) leads with.
func aggRound(p []byte) (int, bool) {
	if len(p) < 4 {
		return 0, false
	}
	return int(binary.LittleEndian.Uint32(p[:4])), true
}

// readAggHeader consumes the round tag and bounded entry count.
func readAggHeader(r *bytes.Reader) (round, entries int, err error) {
	if round, err = readU32(r, "aggregate round"); err != nil {
		return 0, 0, err
	}
	// Every entry needs at least gIdx + nContrib + frameLen.
	if entries, err = readCount(r, "aggregate entry count", 12); err == nil && entries > maxAggEntries {
		err = fmt.Errorf("core: aggregate entry count %d exceeds the %d-entry bound", entries, maxAggEntries)
	}
	return round, entries, err
}

// readAggContribs consumes one entry's bounded contributor list,
// appending into names.
func readAggContribs(r *bytes.Reader, names []string) ([]string, error) {
	n, err := readCount(r, "aggregate contributor count", 4)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// decodeAggInto parses an aggregate frame, invoking merge once per
// entry with the entry's batch index, contributor names and decoded
// sum. The expected feedback shape bounds every tensor decode; the
// contributor slice and tensor are only valid during the callback —
// retainers must clone. Duplicate batch indices within one frame are
// rejected (a legal aggregator merges per index before encoding), so a
// hostile frame cannot multiply decode work beyond maxAggEntries
// distinct sums.
func decodeAggInto(p []byte, want []int, merge func(gIdx int, contribs []string, sum *tensor.Tensor) error) (round int, err error) {
	r := bytes.NewReader(p)
	round, entries, err := readAggHeader(r)
	if err != nil {
		return 0, err
	}
	var names []string
	var seen map[int]bool
	for i := 0; i < entries; i++ {
		gIdx, err := readU32(r, "aggregate batch index")
		if err != nil {
			return round, err
		}
		if gIdx >= maxAggEntries {
			return round, fmt.Errorf("core: implausible aggregate batch index %d", gIdx)
		}
		if seen[gIdx] {
			return round, fmt.Errorf("core: duplicate aggregate batch index %d", gIdx)
		}
		if seen == nil {
			seen = make(map[int]bool, entries)
		}
		seen[gIdx] = true
		if names, err = readAggContribs(r, names[:0]); err != nil {
			return round, err
		}
		frameLen, err := readCount(r, "aggregate frame length", 1)
		if err != nil {
			return round, err
		}
		off := len(p) - r.Len()
		sum, err := decodeFeedbackAny(p[off:off+frameLen], want)
		if err != nil {
			return round, fmt.Errorf("core: aggregate entry %d: %w", i, err)
		}
		r.Seek(int64(frameLen), io.SeekCurrent)
		if err := merge(gIdx, names, sum); err != nil {
			return round, err
		}
	}
	return round, nil
}

// encodeAggSkip frames the server's "stop waiting for this child"
// release for round.
func encodeAggSkip(round int, child string) []byte {
	out := make([]byte, 0, 8+len(child))
	out = binary.LittleEndian.AppendUint32(out, uint32(round))
	return appendString(out, child)
}

// decodeAggSkip splits a skip frame into its round tag and child name.
func decodeAggSkip(p []byte) (round int, child string, err error) {
	r := bytes.NewReader(p)
	if round, err = readU32(r, "skip round"); err == nil {
		child, err = readString(r)
	}
	return round, child, err
}
