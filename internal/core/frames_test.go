package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// msgBytes returns a message's bytes, frames then payload, as one slice.
func msgBytes(msg simnet.Message) []byte {
	return bytes.Join(append(msg.Frames[:len(msg.Frames):len(msg.Frames)], msg.Payload), nil)
}

// slowLink delivers every message to one victim after a fixed delay, in
// order and by reference: the frames of a held batches message stay
// shared with the engine, as over a congested in-process link. It checks
// at delivery that a held message still carries the bytes it was sent
// with, so an engine that reused a frame the victim had not yet decoded
// fails the test even where the race detector sees no overlap.
type slowLink struct {
	simnet.Net
	victim string
	delay  time.Duration
	queue  chan heldMsg
	done   chan struct{}
	late   atomic.Int64 // batches messages delivered
	bad    atomic.Int64 // ... whose bytes changed while held
}

type heldMsg struct {
	msg  simnet.Message
	sent []byte
	due  time.Time
}

func newSlowLink(inner simnet.Net, victim string, delay time.Duration) *slowLink {
	l := &slowLink{Net: inner, victim: victim, delay: delay, queue: make(chan heldMsg, 4096), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		for h := range l.queue {
			time.Sleep(time.Until(h.due))
			if h.msg.Type == msgBatches {
				l.late.Add(1)
				if !bytes.Equal(msgBytes(h.msg), h.sent) {
					l.bad.Add(1)
				}
			}
			_ = l.Net.Send(h.msg)
		}
	}()
	return l
}

func (l *slowLink) Send(msg simnet.Message) error {
	if msg.To != l.victim {
		return l.Net.Send(msg)
	}
	l.queue <- heldMsg{msg: msg, sent: msgBytes(msg), due: time.Now().Add(l.delay)}
	return nil
}

// close delivers what is still held and stops the link.
func (l *slowLink) close() {
	close(l.queue)
	<-l.done
}

// detour sends the messages pick selects through via and the rest
// straight through Net.
type detour struct {
	simnet.Net
	via  simnet.Net
	pick func(simnet.Message) bool
}

func (d *detour) Send(msg simnet.Message) error {
	if d.pick(msg) {
		return d.via.Send(msg)
	}
	return d.Net.Send(msg)
}

// TestLateBatchesNeverSeeReusedFrames pins the frame ownership rule: the
// engine reuses a round slot's batch frames only if that slot's last
// round ended with every dispatched worker's answer in, so a worker
// whose batches arrive after its round was applied without it decodes
// exactly the bytes it was sent. One worker's inbound link is held past
// the round deadline — by reference on an in-order link, and through a
// ChaosNet that delays and duplicates it — while a quorum of the others
// keeps training, strict and pipelined. Run under -race it also pins
// that no late decode overlaps the engine's next write.
func TestLateBatchesNeverSeeReusedFrames(t *testing.T) {
	const timeout = 20 * time.Millisecond
	for _, link := range []string{"in-order", "chaos"} {
		for _, pipeline := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pipeline=%v", link, pipeline), func(t *testing.T) {
				inner := simnet.NewChannelNet(0)
				defer inner.Close()
				victim := workerName(1)
				cfg := baseConfig()
				cfg.Iters = 40
				cfg.Pipeline = pipeline
				cfg.RoundTimeout = timeout
				cfg.Quorum = 3
				var slow *slowLink
				switch link {
				case "in-order":
					slow = newSlowLink(inner, victim, 3*timeout)
					cfg.Net = slow
				case "chaos":
					chaos := simnet.WrapChaos(inner, simnet.ChaosConfig{
						Seed: 17, Delay: 1, MaxDelay: 3 * timeout, Duplicate: 1,
					})
					defer chaos.Close()
					cfg.Net = &detour{Net: inner, via: chaos, pick: func(msg simnet.Message) bool {
						return msg.To == victim && msg.Type == msgBatches
					}}
				}
				res, err := Train(ringShards(4, 64, 509), gan.RingMLP(), cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Iters != cfg.Iters {
					t.Fatalf("applied %d updates, want %d", res.Iters, cfg.Iters)
				}
				if slow != nil {
					slow.close()
					if slow.late.Load() == 0 {
						t.Fatal("no batches message was held: the test exercised nothing")
					}
					if n := slow.bad.Load(); n > 0 {
						t.Fatalf("%d of %d held batches messages changed before the victim decoded them", n, slow.late.Load())
					}
				}
			})
		}
	}
}

// TestStarRoundAllocatesNoPayloadPerWorker: in a fault-free strict star
// round nothing payload-sized is allocated per worker — the batch frames
// go out by reference, the workers decode into their reused tensors,
// feedback frames and decoded feedbacks come from pools — so the bytes a
// round allocates grow with N by far less than one batch frame per
// worker. Measured with runtime.MemStats over the middle rounds of a
// ScaledCNN run (16×16×3 images), with the collector off so no pool is
// emptied under the measurement, and on one P so no pooled tensor waits
// in another P's private sync.Pool slot while this one allocates.
func TestStarRoundAllocatesNoPayloadPerWorker(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const b, first, last = 8, 4, 12
	arch := gan.ScaledCNN(3, 16, 0)
	frame := b * 3 * 16 * 16 * int(unsafe.Sizeof(tensor.Elem(0)))
	perRound := func(n int) float64 {
		cfg := baseConfig()
		cfg.Batch = b
		cfg.Iters = last
		cfg.K = 1
		cfg.SwapEvery = -1 // swaps ship parameters, not batches
		cfg.EvalEvery = 1
		var mu sync.Mutex
		var at [2]uint64
		eval := func(it int, _ *gan.Generator) {
			if it != first && it != last {
				return
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mu.Lock()
			at[it/last] = ms.TotalAlloc
			mu.Unlock()
		}
		shards := dataset.Split(dataset.SynthCIFARSize(n*16, 5, 16), n, 6)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		if _, err := Train(shards, arch, cfg, eval); err != nil {
			t.Fatal(err)
		}
		return float64(at[1]-at[0]) / (last - first)
	}
	two, eight := perRound(2), perRound(8)
	perWorker := (eight - two) / 6
	t.Logf("bytes per round: N=2 %.0f, N=8 %.0f; per extra worker %.0f (a batch frame is %d)", two, eight, perWorker, frame)
	if perWorker > float64(frame)/4 {
		t.Fatalf("each extra worker adds %.0f bytes per round, a batch frame is %d: payload-sized buffers are allocated per worker", perWorker, frame)
	}
}

// swapEveryRound returns four ring shards and a config that swaps
// discriminators every round: a shard of one batch is one local epoch
// per iteration. The round deadline is armed but never reached by a
// fault-free round: it only turns a swap that never arrives into a
// demotion instead of a run that never ends.
func swapEveryRound() ([]*dataset.Dataset, Config) {
	cfg := baseConfig()
	cfg.SwapEvery = 1
	cfg.RoundTimeout = time.Second
	return ringShards(4, cfg.Batch, 41), cfg
}

// swapLedger sits under the links into the victim's inbox, so it sees
// every message as its receiver will. It counts the swaps sent in a
// buffer an earlier swap was sent in, and the swaps that reach the
// victim before its batches of their round: the swaps its triage holds.
// The victim decodes a held swap only in its rendezvous, after it sends
// that round's feedback, so until then no swap may be sent in its buffer,
// and at that feedback it must still carry the bytes it arrived with.
type swapLedger struct {
	simnet.Net
	victim string
	mu     sync.Mutex
	bm     batchesMsg
	round  int // latest batches round delivered to the victim
	seen   map[*byte]bool
	held   [][2][]byte // payload, and a copy taken on arrival
	sent   int         // swaps with parameters
	reused int         // ... in a buffer an earlier swap was sent in
	holds  int         // ... held by the victim
	bad    int         // ... of those reused or changed before their decode
}

func (l *swapLedger) Send(msg simnet.Message) error {
	l.mu.Lock()
	switch {
	case msg.Type == msgSwap && len(msg.Payload) > 4:
		addr := unsafe.SliceData(msg.Payload)
		l.sent++
		if l.seen[addr] {
			l.reused++
		}
		l.seen[addr] = true
		for _, h := range l.held {
			if unsafe.SliceData(h[0]) == addr {
				l.bad++ // drawn again while still held
			}
		}
		if tag, _, _ := decodeSwap(msg.Payload); msg.To == l.victim && tag > l.round {
			l.holds++
			l.held = append(l.held, [2][]byte{msg.Payload, bytes.Clone(msg.Payload)})
		}
	case msg.Type == msgBatches && msg.To == l.victim:
		if decodeBatches(msg.Payload, &l.bm, msg.Frames...) == nil {
			l.round = max(l.round, l.bm.Round)
		}
	case msg.Type == msgFeedback && msg.From == l.victim:
		for _, h := range l.held {
			if !bytes.Equal(h[0], h[1]) {
				l.bad++
			}
		}
		l.held = l.held[:0]
	}
	l.mu.Unlock()
	return l.Net.Send(msg)
}

// TestHeldSwapsDecodeTheBytesTheyWereSent pins the swap frame rule: a
// worker puts a swap frame back into the run's pool only after decoding
// it, so a swap it holds in its stash (tagged beyond its last round)
// decodes with the bytes it was sent with while the other workers' swaps
// cycle through the pool. One worker's batches are held back so that its
// peer's swap overtakes them — in order and by reference on one link,
// and through a ChaosNet that delays and duplicates everything sent to
// that worker, swaps included — strict and pipelined. Each held swap's
// bytes are checked just before its decode, and the in-order run must
// end bitwise equal to the same run over an undisturbed network.
// Run under -race it also pins that no decode overlaps a later encode
// into the same buffer.
func TestHeldSwapsDecodeTheBytesTheyWereSent(t *testing.T) {
	const delay = 5 * time.Millisecond
	victim := workerName(1)
	for _, link := range []string{"in-order", "chaos"} {
		for _, pipeline := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pipeline=%v", link, pipeline), func(t *testing.T) {
				inner := simnet.NewChannelNet(0)
				defer inner.Close()
				ledger := &swapLedger{Net: inner, victim: victim, seen: make(map[*byte]bool)}
				shards, cfg := swapEveryRound()
				cfg.Pipeline = pipeline
				var slow *slowLink
				var via simnet.Net
				pick := func(msg simnet.Message) bool { return msg.To == victim }
				switch link {
				case "in-order":
					slow = newSlowLink(ledger, victim, delay)
					via = slow
					pick = func(msg simnet.Message) bool { return msg.To == victim && msg.Type == msgBatches }
				case "chaos":
					chaos := simnet.WrapChaos(ledger, simnet.ChaosConfig{
						Seed: 23, Delay: 1, MaxDelay: delay, Duplicate: 1,
					})
					defer chaos.Close()
					via = chaos
				}
				cfg.Net = &detour{Net: ledger, via: via, pick: pick}
				res, err := Train(shards, gan.RingMLP(), cfg, nil)
				if slow != nil {
					slow.close()
				}
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d swaps sent, %d in a recycled buffer; %d held by %s", ledger.sent, ledger.reused, ledger.holds, victim)
				if len(res.Live) != len(shards) {
					t.Fatalf("live workers %v: a swap was lost", res.Live)
				}
				if ledger.holds == 0 || ledger.reused == 0 {
					t.Fatal("no swap was held, or no frame recycled: the test exercised nothing")
				}
				if ledger.bad > 0 {
					t.Fatalf("%d times a held swap's buffer was reused or changed before the victim decoded it (%d held)", ledger.bad, ledger.holds)
				}
				if slow != nil && slow.bad.Load() > 0 {
					t.Fatalf("%d held batches messages changed before the victim decoded them", slow.bad.Load())
				}
				if link != "in-order" {
					// A duplicated swap that lands after its round is
					// adopted as a stray, so a chaotic run need not match.
					return
				}
				shards, cfg = swapEveryRound()
				cfg.Pipeline = pipeline
				ref, err := Train(shards, gan.RingMLP(), cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(nn.ParamVector(res.G.Net.Params()), nn.ParamVector(ref.G.Net.Params())) {
					t.Fatal("the generator differs from the same run over an undisturbed network")
				}
				for name, d := range ref.Discs {
					if !bytes.Equal(encodeDiscParams(res.Discs[name], SwapNative), encodeDiscParams(d, SwapNative)) {
						t.Fatalf("%s's discriminator differs from the same run over an undisturbed network", name)
					}
				}
			})
		}
	}
}

// TestSwapRoundAllocatesNoFrame: with the run's swap pool, a round that
// swaps allocates no swap frame — each worker encodes into a buffer the
// receiver of an earlier swap put back — so the bytes an extra swap
// round allocates stay far below one frame. Measured as in
// TestStarRoundAllocatesNoPayloadPerWorker, on the ring data with a
// discriminator of 66k parameters, whose frame outweighs a round's
// batches and feedbacks a thousand to one.
func TestSwapRoundAllocatesNoFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops entries at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const first, last = 8, 40
	arch := gan.RingMLP()
	arch.BuildD = func(rng *rand.Rand) (*nn.Sequential, int) {
		return nn.NewSequential(
			nn.NewDense(2, 256, rng), nn.NewLeakyReLU(0.2),
			nn.NewDense(256, 256, rng), nn.NewLeakyReLU(0.2),
		), 256
	}
	perRound := func(swapEvery int) float64 {
		shards, cfg := swapEveryRound()
		cfg.SwapEvery = swapEvery
		cfg.Iters = last
		cfg.EvalEvery = 1
		var mu sync.Mutex
		var at [2]uint64
		eval := func(it int, _ *gan.Generator) {
			if it != first && it != last {
				return
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mu.Lock()
			at[it/last] = ms.TotalAlloc
			mu.Unlock()
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		if _, err := Train(shards, arch, cfg, eval); err != nil {
			t.Fatal(err)
		}
		return float64(at[1]-at[0]) / (last - first)
	}
	_, cfg := swapEveryRound()
	frame := swapPayloadSize(arch.NewGAN(cfg.Seed, cfg.GenLoss, 1).D, cfg.SwapPrec)
	swap, none := perRound(1), perRound(-1)
	t.Logf("bytes per round: swapping %.0f, not swapping %.0f; per swap round %.0f (a swap frame is %d, 4 per round)", swap, none, swap-none, frame)
	if swap-none > float64(frame)/10 {
		t.Fatalf("a swap round allocates %.0f bytes more than a round without, a swap frame is %d: swap frames are not recycled", swap-none, frame)
	}
}

// TestFramePool pins the pool's contract: the nil pool allocates and
// drops, an undersized buffer is replaced, and put never blocks.
func TestFramePool(t *testing.T) {
	var none framePool
	none.put(make([]byte, 8))
	if b := none.get(16); len(b) != 0 || cap(b) != 16 {
		t.Fatalf("nil pool get(16): len %d cap %d, want an empty exact-size buffer", len(b), cap(b))
	}

	p := newFramePool(2)
	small := make([]byte, 3, 4)
	p.put(small)
	if b := p.get(8); cap(b) != 8 || unsafe.SliceData(b) == unsafe.SliceData(small) {
		t.Fatalf("get(8) over a 4-byte buffer: cap %d, want a fresh 8-byte buffer", cap(b))
	}
	if len(p) != 0 {
		t.Fatal("the undersized buffer stayed in the pool")
	}
	big := make([]byte, 5, 32)
	p.put(big)
	if b := p.get(8); len(b) != 0 || unsafe.SliceData(b) != unsafe.SliceData(big) {
		t.Fatal("get(8) did not hand back the pooled 32-byte buffer, emptied")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 3 * cap(p) {
			p.put(make([]byte, 1))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("put blocked on a full pool")
	}
	if len(p) != cap(p) {
		t.Fatalf("pool holds %d buffers after overfilling, want %d", len(p), cap(p))
	}
}

// frameCaps records every swap and feedback payload sent with capacity
// beyond its length: a buffer some larger frame was encoded into first.
type frameCaps struct {
	simnet.Net
	mu    sync.Mutex
	sent  int
	loose []string
}

func (f *frameCaps) Send(msg simnet.Message) error {
	if msg.Type == msgSwap || msg.Type == msgFeedback {
		f.mu.Lock()
		f.sent++
		if cap(msg.Payload) != len(msg.Payload) {
			f.loose = append(f.loose, fmt.Sprintf("%s %s→%s: len %d cap %d", msg.Type, msg.From, msg.To, len(msg.Payload), cap(msg.Payload)))
		}
		f.mu.Unlock()
	}
	return f.Net.Send(msg)
}

// TestBackToBackRunsShareNoFrame: each run owns its frame pools, so a
// run never encodes into a buffer an earlier run of a larger model left
// behind. Within a run every swap frame, and every feedback frame of one
// batch shape, has one size, so each is sent in a buffer of exactly its
// length; a frame from the earlier run's pools would show as spare
// capacity.
func TestBackToBackRunsShareNoFrame(t *testing.T) {
	run := func(arch gan.Arch, shards []*dataset.Dataset) *frameCaps {
		_, cfg := swapEveryRound()
		cfg.Iters = 6
		inner := simnet.NewChannelNet(0)
		defer inner.Close()
		caps := &frameCaps{Net: inner}
		cfg.Net = caps
		if _, err := Train(shards, arch, cfg, nil); err != nil {
			t.Fatal(err)
		}
		return caps
	}
	b := baseConfig().Batch
	big := run(gan.ScaledMLP(48), dataset.Split(dataset.SynthDigits(4*b, 3), 4, 4))
	small := run(gan.RingMLP(), ringShards(4, b, 41))
	for _, c := range []*frameCaps{big, small} {
		if c.sent == 0 {
			t.Fatal("no swap or feedback frame was sent")
		}
		if len(c.loose) > 0 {
			t.Fatalf("%d of %d frames sent in a buffer larger than the frame, first: %s", len(c.loose), c.sent, c.loose[0])
		}
	}
}
