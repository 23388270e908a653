package core

import (
	"testing"
	"time"

	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// TestCancelSwapCannotResolveEarlierRendezvous is the regression for
// the round-tag fix. Scenario (the ROADMAP known limitation): worker B
// is blocked in round 1's swap rendezvous while its sender's frame
// trails on the transport. The server has already collected every
// feedback and moved on; in round 2 it demotes B's NEW sender and emits
// a cancellation to B. On TCP that cancellation can overtake the real
// round-1 swap.
//
// Pre-fix, msgSwap carried no round tag, so the round-2 cancellation
// resolved round 1's rendezvous: B kept its own discriminator, trained
// round 2 on it, and only afterwards adopted the late swap as a stray —
// one degraded round. Post-fix the cancellation is buffered, the
// tagged round-1 swap completes the rendezvous, and round 2 runs on the
// swapped-in discriminator.
//
// The worker runs with DiscSteps=0, so its round-2 outgoing swap is a
// byte-exact image of whatever discriminator round 2 STARTED from —
// the adopted one iff the rendezvous resolved correctly.
func TestCancelSwapCannotResolveEarlierRendezvous(t *testing.T) {
	net := simnet.NewChannelNet(16)
	defer net.Close()
	const probe = "probe"
	for _, name := range []string{serverName, workerName(0), probe} {
		if err := net.Register(name); err != nil {
			t.Fatal(err)
		}
	}

	arch := gan.RingMLP()
	couple := arch.NewGAN(41, nn.GenLossNonSaturating, 0)
	shard := ringShards(1, 32, 43)[0]
	cfg := Config{TrainConfig: gan.TrainConfig{
		Batch: 4, DiscSteps: 0, Seed: 41,
		OptD: opt.AdamConfig{LR: 1e-3},
	}, Engine: Engine{SwapPrec: SwapNative}}
	w := newWorker(&cfg, framePools{}, net, couple.LossConfig, couple.D, 0, shard)
	go w.run()

	// The discriminator B must adopt: recognisably different parameters.
	donor := couple.D.Clone()
	for _, p := range donor.Params() {
		for i := range p.W.Data {
			p.W.Data[i] = tensor.Elem(5)
		}
	}

	batches := func(round int) []byte {
		x := tensor.Full(0.25, cfg.Batch, 2)
		return encodeBatches(batchesMsg{Xd: x, Xg: x, SwapTo: probe, Round: round})
	}
	send := func(typ string, payload []byte) {
		t.Helper()
		if err := net.Send(simnet.Message{
			From: serverName, To: workerName(0), Type: typ,
			Kind: simnet.CtoW, Payload: payload,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// The adversarial interleaving, all queued in B's inbox up front:
	// round 1's batches; round 2's cancellation overtaking round 1's
	// swap; round 2's batches; the late round-1 swap. Rounds 3 and 4
	// then proceed normally BEFORE the shutdown: the stashed round-2
	// cancellation must resolve round 2's rendezvous on its own (a
	// buggy worker that consumed it elsewhere deadlocks in round 2 and
	// never reaches them — the stop would rescue round 2 but not the
	// rounds after it).
	send(msgBatches, batches(1))
	send(msgSwap, encodeSwapCancel(2))
	send(msgBatches, batches(2))
	send(msgSwap, encodeSwap(nil, 1, donor, SwapNative))
	send(msgBatches, batches(3))
	send(msgSwap, encodeSwap(nil, 3, donor, SwapNative))
	send(msgBatches, batches(4))
	send(msgSwap, encodeSwapCancel(4))
	send(msgStop, nil)

	done := make(chan struct{})
	go func() { w.wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker deadlocked: round-1 rendezvous never resolved")
	}

	// B must have sent one swap per round to the probe — rounds 3 and 4
	// completing proves the stashed round-2 cancellation resolved its
	// own rendezvous. The round-2 swap must carry the donor's
	// parameters — round 2 started from the adopted D.
	inbox := net.Inbox(probe)
	var swaps [][]byte
	for len(swaps) < 4 {
		select {
		case msg := <-inbox:
			if msg.Type == msgSwap {
				swaps = append(swaps, msg.Payload)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("probe received %d swaps, want 4", len(swaps))
		}
	}
	for i, want := range []int{1, 2, 3, 4} {
		r, _, err := decodeSwap(swaps[i])
		if err != nil {
			t.Fatal(err)
		}
		if r != want {
			t.Fatalf("probe swap %d tagged round %d, want %d", i, r, want)
		}
	}
	round, params, err := decodeSwap(swaps[1])
	if err != nil {
		t.Fatal(err)
	}
	if round != 2 {
		t.Fatalf("second probe swap tagged round %d, want 2", round)
	}
	got := couple.D.Clone()
	if err := decodeDiscParamsInto(got, params); err != nil {
		t.Fatal(err)
	}
	for pi, p := range got.Params() {
		for i, v := range p.W.Data {
			if v != 5 {
				t.Fatalf("round 2 swap param %d[%d] = %v, want the donor's 5: the round-2 cancellation resolved round 1's rendezvous", pi, i, v)
			}
		}
	}
}
