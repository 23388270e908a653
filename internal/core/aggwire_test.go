package core

// Tests for the hierarchical-aggregation wire path: round-trip
// fidelity, hostile-frame bounds, the server's contributor validation,
// the clone-or-corrupt contract on aggAccum inputs, and the
// steady-state allocation budget the pool reuse buys.

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"mdgan/internal/cluster"
	"mdgan/internal/tensor"
)

// validAggPayload builds a well-formed two-entry aggregate frame to
// seed the fuzzer and drive the round-trip test.
func validAggPayload(mode Compression) []byte {
	f0 := tensor.New(2, 3)
	f1 := tensor.New(2, 3)
	for i := range f0.Data {
		f0.Data[i] = tensor.Elem(i) * 0.5
		f1.Data[i] = -tensor.Elem(i) * 0.25
	}
	var a aggAccum
	a.reset()
	a.add(1, []string{"worker4", "worker5"}, f0)
	a.add(0, []string{"worker3"}, f1)
	a.add(1, []string{"worker6"}, f1)
	out := a.encode(7, mode)
	a.reset()
	return out
}

func TestDecodeAggregateRoundTrip(t *testing.T) {
	want := []int{2, 3}
	p := validAggPayload(CompressNone)
	type got struct {
		gIdx     int
		contribs []string
		sum      []tensor.Elem
	}
	var ents []got
	round, err := decodeAggInto(p, want, func(gIdx int, contribs []string, sum *tensor.Tensor) error {
		ents = append(ents, got{gIdx, append([]string(nil), contribs...), append([]tensor.Elem(nil), sum.Data...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if round != 7 {
		t.Fatalf("round = %d, want 7", round)
	}
	if len(ents) != 2 {
		t.Fatalf("entries = %d, want 2", len(ents))
	}
	// encode sorts by batch index.
	if ents[0].gIdx != 0 || ents[1].gIdx != 1 {
		t.Fatalf("batch indices %d,%d — want sorted 0,1", ents[0].gIdx, ents[1].gIdx)
	}
	if !reflect.DeepEqual(ents[0].contribs, []string{"worker3"}) {
		t.Fatalf("entry 0 contributors = %v", ents[0].contribs)
	}
	if !reflect.DeepEqual(ents[1].contribs, []string{"worker4", "worker5", "worker6"}) {
		t.Fatalf("entry 1 contributors = %v", ents[1].contribs)
	}
	// Entry 1 summed f0 + f1 = 0.5i - 0.25i = 0.25i.
	for i, v := range ents[1].sum {
		if wantV := tensor.Elem(i) * 0.25; v != wantV {
			t.Fatalf("entry 1 sum[%d] = %v, want %v", i, v, wantV)
		}
	}
}

// forgedAggPayload hand-builds a wire-valid aggregate frame for round
// that lists exactly the given names per batch index over zero sums —
// whether or not any aggregator could legally have produced it.
func forgedAggPayload(round int, shape []int, contribs map[int][]string) []byte {
	zero := tensor.New(shape...)
	var a aggAccum
	a.reset()
	for gIdx, names := range contribs {
		a.add(gIdx, names, zero)
	}
	out := a.encode(round, CompressNone)
	a.reset()
	return out
}

// treeRound is a dispatched round 7 over nine workers under a depth-2
// tree (aggregators worker0/3/6 with two leaves each), k = 2, for
// driving the server's frame validation directly.
func treeRound(shape []int) *round {
	r := &round{}
	r.reset(7)
	r.k = 2
	r.shape = shape
	for i := 0; i < 9; i++ {
		name := workerName(i)
		r.active = append(r.active, name)
		r.gIdx[name] = i % r.k
		r.sent[name] = true
	}
	r.plan = cluster.Tree{Depth: 2}.Plan(serverName, r.active)
	return r
}

// forgedAggFrames are wire-valid frames worker3 — which speaks for
// {worker3 (batch 1), worker4 (batch 0), worker5 (batch 1)} in
// treeRound — must not get accounted: each breaks one clause of
// "every contributor is a distinct member of the sender's subtree,
// listed under the batch index it was routed to".
func forgedAggFrames(round int, shape []int) map[string][]byte {
	return map[string][]byte{
		"foreign contributor":   forgedAggPayload(round, shape, map[int][]string{1: {"worker3", "worker7"}}),
		"duplicate contributor": forgedAggPayload(round, shape, map[int][]string{0: {"worker4"}, 1: {"worker3", "worker5", "worker5"}}),
		"wrong batch index":     forgedAggPayload(round, shape, map[int][]string{1: {"worker3", "worker4"}}),
		"nameless sum":          forgedAggPayload(round, shape, map[int][]string{0: nil, 1: {"worker3"}}),
		"sender absent":         forgedAggPayload(round, shape, map[int][]string{0: {"worker4"}}),
	}
}

// TestDecodeAggValidatesContributors: the server accounts a frame's
// contributor names only when the sender's planned subtree can have
// produced them.
func TestDecodeAggValidatesContributors(t *testing.T) {
	shape := []int{2, 3}
	r := treeRound(shape)
	legal := forgedAggPayload(r.it, shape, map[int][]string{0: {"worker4"}, 1: {"worker3", "worker5"}})
	ents, err := r.decodeAgg(legal, "worker3")
	if err != nil || len(ents) != 2 {
		t.Fatalf("legal frame: %d entries, err %v", len(ents), err)
	}
	// A leaf whose dispatch failed cannot have contributed.
	delete(r.sent, "worker5")
	if _, err := r.decodeAgg(legal, "worker3"); err == nil {
		t.Fatal("frame naming a worker that was never dispatched to accepted")
	}
	r.sent["worker5"] = true
	for name, p := range forgedAggFrames(r.it, shape) {
		if _, err := decodeAggInto(p, shape, func(int, []string, *tensor.Tensor) error { return nil }); err != nil {
			t.Fatalf("%s: the forged frame must be wire-valid to test the validator: %v", name, err)
		}
		if _, err := r.decodeAgg(p, "worker3"); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// TestDecodeAggregateRejects pins the per-field bounds: duplicate batch
// indices, implausible indices, entry-count and contributor-count bombs
// all error before any proportional work.
func TestDecodeAggregateRejects(t *testing.T) {
	want := []int{2, 3}
	noMerge := func(int, []string, *tensor.Tensor) error { return nil }

	dup := func() []byte { // two entries, same gIdx
		f := tensor.New(2, 3)
		var a aggAccum
		a.reset()
		a.add(0, []string{"w"}, f)
		p := a.encode(1, CompressNone)
		a.reset()
		// Double the single entry, patch nEntries to 2.
		p = append(p, p[8:]...)
		binary.LittleEndian.PutUint32(p[4:8], 2)
		return p
	}()
	if _, err := decodeAggInto(dup, want, noMerge); err == nil {
		t.Fatal("duplicate batch index accepted")
	}

	valid := validAggPayload(CompressNone)
	bigIdx := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(bigIdx[8:12], maxAggEntries) // first entry's gIdx
	if _, err := decodeAggInto(bigIdx, want, noMerge); err == nil {
		t.Fatal("implausible batch index accepted")
	}

	entryBomb := binary.LittleEndian.AppendUint32(nil, 0)
	entryBomb = binary.LittleEndian.AppendUint32(entryBomb, 0xFFFFFFF0)
	if _, err := decodeAggInto(entryBomb, want, noMerge); err == nil {
		t.Fatal("entry-count bomb accepted")
	}

	contribBomb := binary.LittleEndian.AppendUint32(nil, 0)
	contribBomb = binary.LittleEndian.AppendUint32(contribBomb, 1)
	contribBomb = binary.LittleEndian.AppendUint32(contribBomb, 0)         // gIdx
	contribBomb = binary.LittleEndian.AppendUint32(contribBomb, 0xFFFFFF0) // nContrib
	contribBomb = append(contribBomb, make([]byte, 16)...)
	if _, err := decodeAggInto(contribBomb, want, noMerge); err == nil {
		t.Fatal("contributor-count bomb accepted")
	}
}

// TestDecodeAggregateTruncationsError walks every prefix of a valid
// frame; each must produce a clean error, never a panic.
func TestDecodeAggregateTruncationsError(t *testing.T) {
	want := []int{2, 3}
	for _, mode := range []Compression{CompressNone, CompressFP32} {
		valid := validAggPayload(mode)
		if _, err := decodeAggInto(valid, want, func(int, []string, *tensor.Tensor) error { return nil }); err != nil {
			t.Fatalf("mode %d: valid frame rejected: %v", mode, err)
		}
		for cut := 0; cut < len(valid); cut++ {
			if _, err := decodeAggInto(valid[:cut], want, func(int, []string, *tensor.Tensor) error { return nil }); err == nil {
				t.Fatalf("mode %d: truncation at %d of %d decoded without error", mode, cut, len(valid))
			}
		}
	}
}

func FuzzDecodeAggregate(f *testing.F) {
	for _, mode := range []Compression{CompressNone, CompressFP32, CompressTopK} {
		valid := validAggPayload(mode)
		f.Add(valid)
		f.Add(valid[:len(valid)/2]) // truncated mid-entry
	}
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(nil, 3)) // round only, no count
	bomb := binary.LittleEndian.AppendUint32(nil, 0)
	bomb = binary.LittleEndian.AppendUint32(bomb, 0xFFFFFFFF) // entry bomb
	f.Add(bomb)
	skip := encodeAggSkip(5, "worker2") // the sibling frame shares the tag
	f.Add(skip)
	// Wire-valid frames whose contributor lists the sender cannot speak
	// for, and one it can.
	for _, p := range forgedAggFrames(7, []int{2, 3}) {
		f.Add(p)
	}
	f.Add(forgedAggPayload(7, []int{2, 3}, map[int][]string{0: {"worker4"}, 1: {"worker3", "worker5"}}))
	r := treeRound([]int{2, 3})
	f.Fuzz(func(t *testing.T, p []byte) {
		want := []int{2, 3}
		// Neither decoder may panic, and any sum that survives decoding
		// must respect the expected feedback volume.
		_, _ = decodeAggInto(p, want, func(_ int, _ []string, sum *tensor.Tensor) error {
			if sum.Size() > 6 {
				t.Fatalf("decoded %d elements past the 6-element bound", sum.Size())
			}
			return nil
		})
		_, _, _ = decodeAggSkip(p)
		// Whatever the server's validator lets through names each of
		// worker3's subtree at most once, under its routed batch index.
		ents, err := r.decodeAgg(p, "worker3")
		seen := map[string]bool{}
		for _, e := range ents {
			for _, name := range e.Contribs {
				if err == nil && (seen[name] || r.parent(name) != "worker3" && name != "worker3" || r.gIdx[name] != e.GIdx) {
					t.Fatalf("validator accepted %q under batch %d (entries %+v)", name, e.GIdx, ents)
				}
				seen[name] = true
			}
		}
	})
}

// TestHostileAggregateFramesDoNotOverAllocate: fabricated length
// prefixes claiming huge entry/contributor/frame sizes must be rejected
// before the decoder allocates storage for the claim.
func TestHostileAggregateFramesDoNotOverAllocate(t *testing.T) {
	want := []int{2, 3}
	hostile := [][]byte{
		func() []byte { // entry-count bomb
			b := binary.LittleEndian.AppendUint32(nil, 0)
			return binary.LittleEndian.AppendUint32(b, 0x7FFFFFFF)
		}(),
		func() []byte { // contributor-count bomb
			b := binary.LittleEndian.AppendUint32(nil, 0)
			b = binary.LittleEndian.AppendUint32(b, 1)
			b = binary.LittleEndian.AppendUint32(b, 0)
			b = binary.LittleEndian.AppendUint32(b, 0x7FFFFFF0)
			return append(b, make([]byte, 32)...)
		}(),
		func() []byte { // feedback frame-length bomb
			b := binary.LittleEndian.AppendUint32(nil, 0)
			b = binary.LittleEndian.AppendUint32(b, 1)
			b = binary.LittleEndian.AppendUint32(b, 0) // gIdx
			b = binary.LittleEndian.AppendUint32(b, 0) // nContrib
			b = binary.LittleEndian.AppendUint32(b, 0x7FFFFFF0)
			return append(b, make([]byte, 16)...)
		}(),
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, p := range hostile {
		if _, err := decodeAggInto(p, want, func(int, []string, *tensor.Tensor) error { return nil }); err == nil {
			t.Fatal("hostile aggregate frame decoded without error")
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("hostile frames allocated %d bytes; bounds checks must reject before allocating", grew)
	}
}

// TestAggAccumDoesNotRetainInputs is the clone-or-corrupt contract for
// the aggregator reduce path: mutating a feedback tensor or the
// contributor slice after add() must not change what the accumulator
// encodes.
func TestAggAccumDoesNotRetainInputs(t *testing.T) {
	f := tensor.New(2, 3)
	for i := range f.Data {
		f.Data[i] = tensor.Elem(i)
	}
	names := []string{"worker1"}
	var a aggAccum
	a.reset()
	a.add(0, names, f)
	ref := a.encode(3, CompressNone)
	// Corrupt both inputs in place.
	for i := range f.Data {
		f.Data[i] = -999
	}
	names[0] = "mallory"
	if got := a.encode(3, CompressNone); !bytes.Equal(got, ref) {
		t.Fatal("accumulator retained a caller-owned tensor or name slice")
	}
	a.reset()
}

// TestAggAccumEncodeBuffersAreFresh: the net retains payload references
// (frames travel through channels and may sit in a peer's inbox across
// rounds), so encode must hand out a fresh buffer every call.
func TestAggAccumEncodeBuffersAreFresh(t *testing.T) {
	f := tensor.New(2, 3)
	var a aggAccum
	a.reset()
	a.add(0, []string{"w"}, f)
	first := a.encode(1, CompressNone)
	snapshot := append([]byte(nil), first...)
	a.reset()
	a.add(0, []string{"w"}, f)
	a.add(1, []string{"x"}, f)
	_ = a.encode(2, CompressNone)
	if !bytes.Equal(first, snapshot) {
		t.Fatal("a later encode overwrote an earlier in-flight frame")
	}
	a.reset()
}

// TestAggAccumSteadyStateAllocs pins the pool-reuse budget: after the
// first round warms the entry slots, map and pooled sums, a
// reset/add/add cycle allocates only the pooled tensor checkouts (which
// tensor.Get satisfies from the free list without new backing arrays).
func TestAggAccumSteadyStateAllocs(t *testing.T) {
	f := tensor.New(4, 6)
	for i := range f.Data {
		f.Data[i] = tensor.Elem(i % 5)
	}
	kids := []string{"worker4", "worker5"}
	var a aggAccum
	a.reset()
	// Warm the pool and the accumulator's slots.
	for r := 0; r < 3; r++ {
		a.reset()
		a.add(0, kids, f)
		a.add(1, kids, f)
	}
	a.reset()
	avg := testing.AllocsPerRun(50, func() {
		a.reset()
		a.add(0, kids, f)
		a.add(1, kids, f)
	})
	// Budget: one pool checkout per entry may allocate the *tensor.Tensor
	// header even when the backing array is recycled.
	if avg > 4 {
		t.Fatalf("steady-state aggregation round allocates %.1f objects, budget 4", avg)
	}
	a.reset()
}
