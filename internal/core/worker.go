package core

import (
	"math/rand"
	"sync"
	"time"

	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/opt"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// worker is one MD-GAN participant: it hosts a discriminator D_n and a
// local data shard B_n, and runs the WORKER procedure of Algorithm 1 in
// its own goroutine, driven entirely by messages.
type worker struct {
	name    string
	d       *gan.Discriminator
	lc      gan.LossConfig
	optD    *opt.Adam
	sampler *dataset.Sampler
	batch   int
	discL   int
	net     simnet.Net
	// lazySwap applies incoming swap parameters whenever they arrive
	// instead of blocking for them (used in async mode, where strict
	// rendezvous could stall the pipeline).
	lazySwap bool
	// compress selects the feedback wire encoding (§VII.2 extension).
	compress Compression
	// swapPrec selects the wire width of outgoing swap and clone
	// payloads (SwapFP32 by default).
	swapPrec SwapPrecision
	// byzantine, when non-zero, corrupts the feedback before sending
	// (§VII.3 adversary model). Free-rider modes skip local training
	// and fabricate the feedback outright.
	byzantine ByzantineMode
	// rng drives the ByzantineRandom attack and the free-rider
	// fabrications.
	rng *rand.Rand
	// replay caches the FreeRiderReplay attacker's fabricated feedback:
	// built once on its first round, re-sent verbatim ever after.
	replay *tensor.Tensor

	// pending buffers messages that arrive while the worker is blocked
	// waiting for a swap (e.g. the next iteration's batches racing the
	// peer's swap message on TCP transports).
	pending []simnet.Message
	// futureSwaps holds swap traffic tagged with a round this worker
	// has not reached yet (it can overtake that round's batches on
	// TCP). Only awaitSwap consumes it — routing it through the main
	// loop would discard a future rendezvous's release and deadlock
	// that rendezvous.
	futureSwaps []simnet.Message
	// futureAggs holds aggregation traffic (msgAgg contributions from
	// children, msgAggSkip releases from the server) tagged with a round
	// whose batches have not arrived yet — a child's contribution can
	// overtake its aggregator's own batches on TCP. Only collectChildren
	// consumes it.
	futureAggs []simnet.Message
	// lastRound is the most recent batches round handled; swap traffic
	// tagged beyond it belongs to a rendezvous that has not opened yet.
	lastRound int

	// agg accumulates this worker's aggregation round (own feedback +
	// children's sums) when the topology plan names it a parent; its sum
	// tensors come from the workspace pool and are recycled each round.
	agg aggAccum
	// aggGot buffers raw child frames during collectChildren so the
	// merge can run in bm.Children order — merging at arrival order
	// would make the forwarded sums scheduling-dependent.
	aggGot map[string][]byte
	// ownName caches the single-element contributor slice for the
	// worker's own aggregate entry.
	ownName []string

	// bm is the reusable decode target for incoming batch messages: the
	// tensors and label slices are overwritten in place each iteration.
	bm batchesMsg

	done chan struct{}
	once sync.Once
}

// run processes messages until stopped or crashed (inbox closed).
// w.done must be initialised before the goroutine starts.
func (w *worker) run() {
	defer w.once.Do(func() { close(w.done) })
	inbox := w.net.Inbox(w.name)
	for {
		msg, ok := w.next(inbox)
		if !ok {
			return // crashed: inbox closed under us (fail-stop)
		}
		switch msg.Type {
		case msgStop:
			return
		case msgPing:
			// Liveness probe: the server suspects us (our feedback missed
			// a round deadline). Answering from the main loop — and ONLY
			// from here — is deliberate: a worker stuck in a swap
			// rendezvous cannot pong, so the server keeps ticking its
			// escalation counter and eventually demotes it, closing its
			// inbox and unblocking the rendezvous. A pong is therefore
			// real evidence of life, not just of a reachable transport.
			_ = w.net.Send(simnet.Message{
				From: w.name, To: serverName, Type: msgPong, Kind: simnet.WtoC,
			})
		case msgSwap:
			// A swap that arrived outside a rendezvous: adopt the
			// incoming discriminator if its round has already passed
			// (lazy mode, a late frame whose rendezvous was cancelled,
			// or the join protocol's tag-0 clone); a bare round tag is
			// a cancellation (the sender was demoted mid-round): keep
			// D. Traffic tagged with a FUTURE round overtook that
			// round's batches — hold it for that round's rendezvous
			// instead of consuming it here, or the rendezvous would
			// wait forever for a release that was already eaten. (Lazy
			// workers never rendezvous, and async tags come from the
			// sender's own iteration counter, so they always adopt
			// immediately.)
			r, params, err := decodeSwap(msg.Payload)
			if err != nil {
				continue // corrupt frame: a lost swap, not a death sentence
			}
			if r > w.lastRound && !w.lazySwap {
				w.futureSwaps = append(w.futureSwaps, msg)
				continue
			}
			if len(params) == 0 {
				continue
			}
			if err := decodeDiscParamsInto(w.d, params); err != nil {
				continue // corrupt parameters: keep our own discriminator
			}
		case msgClone:
			// The server asked for a copy of our discriminator to
			// bootstrap a joining worker (§IV-A).
			if err := w.net.Send(simnet.Message{
				From: w.name, To: serverName, Type: msgDParams,
				Kind: simnet.WtoC, Payload: encodeDiscParams(w.d, w.swapPrec),
			}); err != nil {
				return
			}
		case msgAgg, msgAggSkip:
			// Aggregation traffic outside a collect window: a child's
			// contribution (or the server's skip release) for a round
			// whose batches have not reached us yet — hold it where
			// collectChildren will look for it. Anything tagged with a
			// round we already forwarded is a straggler whose
			// contribution is lost (the server's deadline machinery
			// accounts for the missing contributors).
			if r, ok := aggRound(msg.Payload); ok && r > w.lastRound {
				w.futureAggs = append(w.futureAggs, msg)
			}
		case msgBatches:
			if !w.handleBatches(msg) {
				return
			}
		}
	}
}

// next pops a buffered message first, then reads the inbox.
func (w *worker) next(inbox <-chan simnet.Message) (simnet.Message, bool) {
	if len(w.pending) > 0 {
		msg := w.pending[0]
		w.pending = w.pending[1:]
		return msg, true
	}
	msg, ok := <-inbox
	return msg, ok
}

// handleBatches runs one global iteration at the worker: L local
// discriminator steps on (X^(r), X^(d)), the error feedback on X^(g),
// and the swap when commanded. Returns false when the worker must stop.
func (w *worker) handleBatches(msg simnet.Message) bool {
	if err := decodeBatches(msg.Payload, &w.bm); err != nil {
		// A corrupt batches frame is a transient fault, not a reason to
		// die: skip the round. The server's deadline will notice the
		// missing feedback and suspect us; its probe finds us alive.
		return true
	}
	bm := &w.bm
	if bm.Round <= w.lastRound {
		// Duplicate delivery (an at-least-once transport, or a chaos
		// net): the round was already trained. Re-running it would send
		// a second swap AND open a second rendezvous nothing will ever
		// resolve. Rounds per worker are strictly increasing in every
		// mode (global iterations, or the per-worker counter in async).
		return true
	}
	w.lastRound = bm.Round
	var fn *tensor.Tensor
	if w.byzantine.IsFreeRider() {
		// Free-rider (Zhao et al.): the attack's whole point is to
		// reap the generator's benefit while spending no compute, so
		// it skips the L discriminator steps AND the feedback pass and
		// fabricates a plausible frame from worker-visible data only.
		fn = w.fabricateFeedback(bm.Xg)
	} else {
		// Step 2 (§IV-A): L discriminator learning steps against the
		// local shard. X^(r) is drawn once per global iteration
		// (Algorithm 1 line 4) and reused across the L steps.
		xr, lr := w.sampler.Sample(w.batch)
		for l := 0; l < w.discL; l++ {
			gan.DiscStep(w.d, w.lc, w.optD, xr, lr, bm.Xd, bm.Ld)
		}
		// Step 3: error feedback on X^(g). A compromised worker lies
		// here.
		fn, _ = gan.Feedback(w.d, w.lc, bm.Xg, bm.Lg)
		if w.byzantine != ByzantineNone {
			if err := corruptFeedback(fn, w.byzantine, w.rng); err != nil {
				// A misconfigured attack mode must not kill the worker
				// goroutine mid-run (this used to panic): surface it
				// through the corrupt-frame strike path instead — the
				// deliberately-invalid frame below fails the server's
				// decode, which strikes us per round until the budget
				// demotes us.
				fn = nil
			}
		}
	}

	// SWAP (§IV-C1): send D_n before the feedback so that once the
	// server has every feedback, every swap is already in flight —
	// the receiving rendezvous below can then never deadlock. The
	// payload carries this round's tag so the receiver can match it to
	// the rendezvous the server commanded.
	if bm.SwapTo != "" {
		if err := w.net.Send(simnet.Message{
			From: w.name, To: bm.SwapTo, Type: msgSwap,
			Kind: simnet.WtoW, Payload: encodeSwap(bm.Round, w.d, w.swapPrec),
		}); err != nil {
			// Receiver crashed mid-round: keep our discriminator.
			_ = err
		}
	}
	if fn == nil {
		// Unknown byzantine mode: ship an undecodable one-byte frame on
		// the round's normal feedback channel. The server (or parent
		// aggregator) rejects it like any corrupt frame — NoteCorrupt
		// strikes accumulate until the budget demotes us — instead of
		// the old panic tearing the goroutine down.
		to, typ, kind := serverName, msgFeedback, simnet.WtoC
		if bm.Parent != "" {
			to, typ = bm.Parent, msgAgg
			if bm.Parent != serverName {
				kind = simnet.WtoW
			}
		}
		if err := w.net.Send(simnet.Message{
			From: w.name, To: to, Type: typ, Kind: kind, Payload: []byte{0xFF},
		}); err != nil && to == serverName {
			return false
		}
	} else if bm.Parent == "" {
		// Flat star (no plan): the bare feedback frame to the server.
		if err := w.net.Send(simnet.Message{
			From: w.name, To: serverName, Type: msgFeedback,
			Kind: simnet.WtoC, Payload: encodeFeedbackCompressed(fn, w.compress),
		}); err != nil {
			return false
		}
	} else if !w.sendAggregate(fn) {
		return false
	}
	if bm.SwapTo != "" && !w.lazySwap {
		return w.awaitSwap(bm.Round)
	}
	return true
}

// fabricateFeedback is the free-rider's replacement for the honest
// DiscStep + Feedback computation: plausible noise (or the cached
// replay tensor) shaped like the generated batch, at zero training
// cost. The replay cache holds the FIRST fabrication forever — the
// identical tensor re-encodes to the identical wire frame each round,
// which is exactly the stale-feedback signature the server-side
// fingerprint detection looks for.
func (w *worker) fabricateFeedback(xg *tensor.Tensor) *tensor.Tensor {
	if w.byzantine == FreeRiderReplay && w.replay != nil {
		return w.replay
	}
	f := fabricateFreeRiderFeedback(xg, w.byzantine, w.rng)
	if w.byzantine == FreeRiderReplay {
		w.replay = f
	}
	return f
}

// sendAggregate runs the worker's side of the round's aggregation plan:
// collect the children's contributions (none for a leaf), fold in our
// own feedback, and forward the reduced frame to bm.Parent. Returns
// false when the worker must stop (crashed inbox, or the parent IS the
// server and it is gone — the same death the bare feedback send
// takes).
func (w *worker) sendAggregate(fn *tensor.Tensor) bool {
	bm := &w.bm
	send, alive := w.collectChildren()
	if !alive {
		return false
	}
	if !send {
		return true // stopping: run() pops the requeued msgStop next
	}
	w.agg.reset()
	if w.ownName == nil {
		w.ownName = []string{w.name}
	}
	w.agg.add(bm.GIdx, w.ownName, fn)
	want := bm.Xg.Shape()
	for _, c := range bm.Children {
		p, ok := w.aggGot[c]
		if !ok {
			continue
		}
		// A frame that corrupts mid-decode keeps its already-decoded
		// entries (they are real sums); the contributors lost to the
		// corrupt tail miss the round and the server's deadline
		// machinery accounts for them.
		_, _ = decodeAggInto(p, want, func(gIdx int, names []string, sum *tensor.Tensor) error {
			w.agg.add(gIdx, names, sum)
			return nil
		})
	}
	// An aggregator re-encodes SUMS: top-k of a sum would re-sparsify
	// the children's already-lossy contributions, compounding the loss
	// at every tree level, so the aggregate frame falls back to the
	// dense fp32 encoding. A leaf's single-contribution frame keeps the
	// configured mode — same loss profile as the flat star.
	mode := w.compress
	if len(bm.Children) > 0 && mode == CompressTopK {
		mode = CompressFP32
	}
	payload := w.agg.encode(bm.Round, mode)
	kind := simnet.WtoW
	if bm.Parent == serverName {
		kind = simnet.WtoC
	}
	err := w.net.Send(simnet.Message{
		From: w.name, To: bm.Parent, Type: msgAgg, Kind: kind, Payload: payload,
	})
	w.agg.reset()
	if err != nil {
		if bm.Parent == serverName {
			return false
		}
		// A dead peer parent loses this subtree's round; the next
		// round's plan reparents us.
	}
	return true
}

// collectChildren gathers this round's msgAgg frames from bm.Children
// (buffering the raw payloads in aggGot for the in-order merge),
// honouring msgAggSkip releases and the AggWait deadline. send=false
// means skip the upstream forward (stopping); alive=false means the
// worker crashed (inbox closed).
func (w *worker) collectChildren() (send, alive bool) {
	bm := &w.bm
	if w.aggGot == nil {
		w.aggGot = make(map[string][]byte, len(bm.Children))
	} else {
		clear(w.aggGot)
	}
	if len(bm.Children) == 0 {
		return true, true
	}
	need := make(map[string]bool, len(bm.Children))
	for _, c := range bm.Children {
		need[c] = true
	}
	// This round's contributions may already be stashed: a child's
	// frame can overtake our own batches on TCP. Flush stale stragglers
	// along the way.
	keep := w.futureAggs[:0]
	for _, msg := range w.futureAggs {
		r, ok := aggRound(msg.Payload)
		switch {
		case !ok || r < bm.Round:
			// Corrupt or stale: its round already closed.
		case r > bm.Round:
			keep = append(keep, msg)
		default:
			w.absorbAgg(msg, need)
		}
	}
	w.futureAggs = keep
	if len(need) == 0 {
		return true, true
	}
	var expire <-chan time.Time
	if bm.AggWait > 0 {
		timer := time.NewTimer(time.Duration(bm.AggWait) * time.Millisecond)
		defer timer.Stop()
		expire = timer.C
	}
	inbox := w.net.Inbox(w.name)
	for len(need) > 0 {
		select {
		case msg, ok := <-inbox:
			if !ok {
				return false, false
			}
			switch msg.Type {
			case msgAgg, msgAggSkip:
				r, ok := aggRound(msg.Payload)
				switch {
				case !ok || r < bm.Round:
				case r > bm.Round:
					w.futureAggs = append(w.futureAggs, msg)
				default:
					w.absorbAgg(msg, need)
				}
			case msgSwap:
				// Swap traffic tagged with this round or later belongs
				// to a rendezvous that has not opened yet (ours opens
				// after the upstream forward) — adopting it here would
				// eat the release awaitSwap will block on. Earlier
				// rounds follow the stray rules.
				r, params, err := decodeSwap(msg.Payload)
				if err != nil {
					continue
				}
				if r >= bm.Round {
					w.futureSwaps = append(w.futureSwaps, msg)
					continue
				}
				if len(params) > 0 {
					_ = decodeDiscParamsInto(w.d, params)
				}
			case msgStop:
				// Shutdown beats the forward: requeue so run() exits on
				// it next.
				w.pending = append(w.pending, msg)
				return false, true
			default:
				// Pings included: a collect-blocked aggregator must not
				// pong (see run) — the probe escalation is what breaks a
				// wedged collect once the server gives up on us.
				w.pending = append(w.pending, msg)
			}
		case <-expire:
			// Deadline: forward the partial reduction. Missing children
			// miss the round; the server's accounting notices.
			return true, true
		}
	}
	return true, true
}

// absorbAgg accounts one in-round aggregation message against the
// outstanding-children set: a child's frame is buffered for the merge,
// a skip releases the slot of a child whose dispatch failed. A skip
// racing behind the child's real frame is stale and ignored.
func (w *worker) absorbAgg(msg simnet.Message, need map[string]bool) {
	if msg.Type == msgAggSkip {
		if _, child, err := decodeAggSkip(msg.Payload); err == nil && w.aggGot[child] == nil {
			delete(need, child)
		}
		return
	}
	if !need[msg.From] {
		return // not our child this round, or a duplicate: drop
	}
	delete(need, msg.From)
	w.aggGot[msg.From] = msg.Payload
}

// awaitSwap blocks until round's replacement discriminator arrives. A
// bare-tag msgSwap for the same round is the server's cancellation —
// the peer that owed us its discriminator was demoted mid-round — so we
// keep our own D and resume. Swap traffic tagged with a LATER round is
// stashed in futureSwaps for that round's rendezvous: a later round's
// cancellation can race ahead of this round's swap on TCP (the server
// moves on once feedbacks are in), and resolving this rendezvous with
// it would both drop the real swap still in flight AND eat the release
// the later rendezvous will block on. Earlier-round stragglers follow
// the stray rules in place (late swap adopted, stale cancellation
// dropped). The protocol guarantees something tagged with THIS round is
// coming: the sender either got its batches (its swap is in flight — it
// sends before awaiting its own rendezvous) or it did not (the server
// saw the failed dispatch and sent this round's cancellation).
func (w *worker) awaitSwap(round int) bool {
	// This round's release may already be stashed: it can arrive while
	// an EARLIER rendezvous is still open. Flush stale stragglers along
	// the way.
	keep := w.futureSwaps[:0]
	var match *simnet.Message
	for i := range w.futureSwaps {
		msg := w.futureSwaps[i]
		r, params, err := decodeSwap(msg.Payload)
		switch {
		case err != nil:
			// Corrupt frame: discard it (its rendezvous, if any, is
			// released by the server's deadline machinery).
		case r == round && match == nil:
			match = &msg
		case r < round:
			if len(params) > 0 {
				// Stray adoption; corrupt parameters → keep our own D.
				_ = decodeDiscParamsInto(w.d, params)
			}
		default:
			keep = append(keep, msg)
		}
	}
	w.futureSwaps = keep
	if match != nil {
		_, params, _ := decodeSwap(match.Payload)
		if len(params) > 0 {
			// Corrupt parameters resolve the rendezvous like a
			// cancellation: the swap is lost, our own D carries on.
			_ = decodeDiscParamsInto(w.d, params)
		}
		return true
	}
	inbox := w.net.Inbox(w.name)
	for {
		msg, ok := <-inbox
		if !ok {
			return false
		}
		if msg.Type == msgSwap {
			r, params, err := decodeSwap(msg.Payload)
			if err != nil {
				continue // corrupt frame: not this rendezvous's release
			}
			if r > round {
				// A later rendezvous's traffic: hold it where only that
				// rendezvous will look for it.
				w.futureSwaps = append(w.futureSwaps, msg)
				continue
			}
			if r < round {
				// Straggler from a resolved round: stray rules (corrupt
				// parameters → keep our own discriminator).
				if len(params) > 0 {
					_ = decodeDiscParamsInto(w.d, params)
				}
				continue
			}
			if len(params) > 0 {
				// Corrupt parameters resolve like a cancellation.
				_ = decodeDiscParamsInto(w.d, params)
			}
			return true
		}
		if msg.Type == msgStop {
			// Shutdown beats the swap: requeue so run() sees it next.
			w.pending = append(w.pending, msg)
			return true
		}
		w.pending = append(w.pending, msg)
	}
}

// wait blocks until the worker goroutine has exited.
func (w *worker) wait() {
	if w.done != nil {
		<-w.done
	}
}
