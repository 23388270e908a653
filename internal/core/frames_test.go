package core

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"mdgan/internal/dataset"
	"mdgan/internal/gan"
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

// chaosLink routes the victim's batches through a ChaosNet over the
// same inner transport and everything else straight to it.
type chaosLink struct {
	simnet.Net
	chaos  *simnet.ChaosNet
	victim string
}

func (l *chaosLink) Send(msg simnet.Message) error {
	if msg.To == l.victim && msg.Type == msgBatches {
		return l.chaos.Send(msg)
	}
	return l.Net.Send(msg)
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
					cfg.Net = &chaosLink{Net: inner, chaos: chaos, victim: victim}
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
