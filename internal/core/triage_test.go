package core

import (
	"testing"

	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// triageWorker builds an idle worker (no goroutine) whose discriminator
// is all zeros and a donor whose parameters are all 5, so "adopted" is a
// one-element check.
func triageWorker(t *testing.T, net simnet.Net, lazy bool) (w *worker, donor *gan.Discriminator) {
	t.Helper()
	couple := gan.RingMLP().NewGAN(41, nn.GenLossNonSaturating, 0)
	cfg := Config{TrainConfig: gan.TrainConfig{
		Batch: 4, Seed: 41, OptD: opt.AdamConfig{LR: 1e-3},
	}, Engine: Engine{SwapPrec: SwapNative, Async: lazy}}
	w = newWorker(&cfg, framePools{}, net, couple.LossConfig, couple.D, 0, ringShards(1, 32, 43)[0])
	donor = couple.D.Clone()
	for _, p := range w.d.Params() {
		p.W.Zero()
	}
	for _, p := range donor.Params() {
		p.W.CopyFrom(tensor.Full(5, p.W.Shape()...))
	}
	return w, donor
}

// TestWorkerTriage pins the whole round-tag policy as a table: every
// message type × round tag {<, =, > lastRound, corrupt} × window × {strict,
// lazy}, the verdict and whether the discriminator was adopted ("+D").
// The scenario tests (swaptag_test.go, fault_test.go, tree_test.go,
// join_test.go) only sample this matrix.
func TestWorkerTriage(t *testing.T) {
	const last = 5
	_, donor := triageWorker(t, nil, false)
	swap := func(tag int) []byte { return encodeSwap(nil, tag, donor, SwapNative) }
	cancel := func(tag int) []byte { return encodeSwapCancel(tag) }
	badSwap := func(tag int) []byte { return append(encodeSwapCancel(tag), 0xde, 0xad, 0xbe, 0xef, 0x01) }
	agg := func(tag int) []byte {
		var a aggAccum
		a.reset()
		a.add(0, []string{workerName(1)}, tensor.Full(1, 4, 2))
		return a.encode(tag, CompressNone)
	}
	skip := func(tag int) []byte { return encodeAggSkip(tag, workerName(1)) }
	short := func(int) []byte { return []byte{1, 2} } // too short for a round tag
	none := func(int) []byte { return nil }

	// Cells are {main, collect, rendezvous}.
	type cells [3]string
	all := func(v string) cells { return cells{v, v, v} }
	mainOnly := cells{"deliver", "hold", "hold"}
	rows := []struct {
		name    string
		typ     string
		payload func(tag int) []byte
		tag     int
		strict  cells
		lazy    cells
	}{
		{"swap <", msgSwap, swap, last - 1, all("drop+D"), all("drop+D")},
		{"swap =", msgSwap, swap, last, cells{"drop+D", "hold", "deliver+D"}, all("drop+D")},
		{"swap >", msgSwap, swap, last + 1, all("hold"), all("drop+D")},
		{"swap join clone (tag 0)", msgSwap, swap, 0, all("drop+D"), all("drop+D")},
		{"cancel <", msgSwap, cancel, last - 1, all("drop"), all("drop")},
		{"cancel =", msgSwap, cancel, last, cells{"drop", "hold", "deliver"}, all("drop")},
		{"cancel >", msgSwap, cancel, last + 1, all("hold"), all("drop")},
		{"swap corrupt params <", msgSwap, badSwap, last - 1, all("drop"), all("drop")},
		{"swap corrupt params =", msgSwap, badSwap, last, cells{"drop", "hold", "deliver"}, all("drop")},
		{"swap corrupt params >", msgSwap, badSwap, last + 1, all("hold"), all("drop")},
		{"swap corrupt tag", msgSwap, short, 0, all("drop"), all("drop")},
		{"agg <", msgAgg, agg, last - 1, all("drop"), all("drop")},
		{"agg =", msgAgg, agg, last, cells{"drop", "deliver", "drop"}, cells{"drop", "deliver", "drop"}},
		{"agg >", msgAgg, agg, last + 1, all("hold"), all("hold")},
		{"agg corrupt tag", msgAgg, short, 0, all("drop"), all("drop")},
		{"aggskip <", msgAggSkip, skip, last - 1, all("drop"), all("drop")},
		{"aggskip =", msgAggSkip, skip, last, cells{"drop", "deliver", "drop"}, cells{"drop", "deliver", "drop"}},
		{"aggskip >", msgAggSkip, skip, last + 1, all("hold"), all("hold")},
		{"aggskip corrupt tag", msgAggSkip, short, 0, all("drop"), all("drop")},
		{"ping", msgPing, none, 0, mainOnly, mainOnly},
		{"clone", msgClone, none, 0, mainOnly, mainOnly},
		{"batches", msgBatches, none, 0, mainOnly, mainOnly},
		{"unknown type", msgDParams, none, 0, mainOnly, mainOnly},
		{"stop", msgStop, none, 0, all("deliver"), all("deliver")},
	}
	names := map[verdict]string{deliver: "deliver", hold: "hold", drop: "drop"}
	for _, row := range rows {
		for _, lazy := range []bool{false, true} {
			want := row.strict
			if lazy {
				want = row.lazy
			}
			for win, wantCell := range want {
				w, _ := triageWorker(t, nil, lazy)
				w.lastRound = last
				msg := simnet.Message{From: workerName(1), To: w.name, Type: row.typ, Payload: row.payload(row.tag)}
				got := names[w.triage(msg, window(win))]
				switch v := w.d.Params()[0].W.Data[0]; v {
				case 5:
					got += "+D"
				case 0:
				default:
					t.Fatalf("%s: discriminator half-written (%v)", row.name, v)
				}
				if got != wantCell {
					t.Errorf("%s, lazy=%v, window %d: triage = %s, want %s", row.name, lazy, win, got, wantCell)
				}
			}
		}
	}
}

// TestWorkerStashClearsVacatedSlot: a message leaving the stash —
// delivered or dropped — must not stay reachable from the backing
// array. A held swap payload is 2.7 MB on mnist-mlp-n4; a plain
// append(s[:i], s[i+1:]...) would pin the last one until the stash next
// grew that deep.
func TestWorkerStashClearsVacatedSlot(t *testing.T) {
	net := simnet.NewChannelNet(8)
	defer net.Close()
	for _, name := range []string{serverName, workerName(0)} {
		if err := net.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	w, donor := triageWorker(t, net, false)
	w.lastRound = 1
	send := func(typ string, payload []byte) {
		t.Helper()
		if err := net.Send(simnet.Message{
			From: serverName, To: w.name, Type: typ, Kind: simnet.CtoW, Payload: payload,
		}); err != nil {
			t.Fatal(err)
		}
	}
	send(msgSwap, encodeSwap(nil, 2, donor, SwapNative)) // held: round 2 has not opened
	send(msgSwap, encodeSwapCancel(3))                   // held
	send(msgSwap, encodeSwap(nil, 4, donor, SwapNative)) // held
	send(msgPing, nil)
	if msg, _ := w.recv(winMain, nil); msg.Type != msgPing {
		t.Fatalf("main window delivered %q, want the ping behind the held swaps", msg.Type)
	}
	if len(w.stash) != 3 {
		t.Fatalf("stash holds %d messages, want 3", len(w.stash))
	}
	backing := w.stash[:3]
	vacated := func(want int) {
		t.Helper()
		if len(w.stash) != want {
			t.Fatalf("stash holds %d messages, want %d", len(w.stash), want)
		}
		for i, m := range backing[want:] {
			if m.Type != "" || m.Payload != nil {
				t.Fatalf("vacated stash slot %d still references a %q message (%d payload bytes)",
					want+i, m.Type, len(m.Payload))
			}
		}
	}
	// Round 2's rendezvous: the stashed swap resolves it (delivered).
	w.lastRound = 2
	msg, _ := w.recv(winSwap, nil)
	if r, _, _ := decodeSwap(msg.Payload); msg.Type != msgSwap || r != 2 {
		t.Fatalf("rendezvous resolved by %q tagged %d, want the round-2 swap", msg.Type, r)
	}
	vacated(2)
	// By round 4's collect window the round-3 cancellation is a stale
	// stray (dropped) and the round-4 swap still waits for its rendezvous.
	w.lastRound = 4
	send(msgStop, nil)
	if msg, _ := w.recv(winCollect, nil); msg.Type != msgStop {
		t.Fatalf("collect window delivered %q, want the stop", msg.Type)
	}
	vacated(1)
	if r, _, _ := decodeSwap(w.stash[0].Payload); r != 4 {
		t.Fatalf("stash kept the swap tagged %d, want 4", r)
	}
	if got := w.d.Params()[0].W.Data[0]; got != 5 {
		t.Fatalf("round-2 swap not adopted: D[0] = %v", got)
	}
}
