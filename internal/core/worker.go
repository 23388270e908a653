package core

import (
	"math/rand"
	"slices"
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
	net     simnet.Net
	// cfg is the run's one Config (the server's). The worker reads its
	// batch size, step count, wire encodings and Async: an async worker
	// adopts incoming swap parameters whenever they arrive instead of
	// blocking for them, since a strict rendezvous could stall the
	// per-feedback loop.
	cfg *Config
	// pools are the run's frame pools, shared with the server and every
	// other worker: the worker encodes its feedback and swap frames into
	// their buffers and puts back each swap frame it decodes.
	pools framePools
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

	// stash holds, in arrival order, every message triage said to hold:
	// traffic for a window that has not opened yet. recv is its only
	// reader and writer.
	stash []simnet.Message
	// lastRound is the most recent batches round handled — the round
	// whose collect window and rendezvous are open or already closed.
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

// window names where a worker reads its inbox from: the main loop, an
// aggregator's wait for its children, or a swap round's rendezvous.
type window int

const (
	winMain window = iota
	winCollect
	winSwap
)

// verdict is triage's decision on one message.
type verdict int

const (
	deliver verdict = iota // hand it to the window's reader
	hold                   // keep it in the stash for a later window
	drop                   // consumed here (a stray, stale or corrupt)
)

// triage decides the fate of one message read in window win. It is the
// only place the round-tag policy lives: run, collectChildren and the
// rendezvous all read through recv, so a fix to these rules lands once.
//
// Swap traffic is matched to rendezvous by its round tag, because on a
// transport where W→W frames can trail the server's sends (TCP: one
// connection per pair) neighbouring rounds interleave:
//   - tagged beyond lastRound it overtook that round's batches, and
//     tagged lastRound while the collect window is open it is ahead of
//     our own rendezvous (which opens after the upstream forward): hold
//     it. Consuming it early would eat the release that rendezvous will
//     block on — a later round's cancellation can race ahead of this
//     round's swap, since the server moves on once feedbacks are in —
//     and resolving the open rendezvous with it would also displace the
//     real swap still in flight;
//   - tagged lastRound inside the rendezvous it resolves it: parameters
//     are adopted, a bare tag is the server's cancellation (the peer
//     that owed us its discriminator was demoted mid-round: keep D), and
//     corrupt parameters count as a lost swap, our own D carries on.
//     Something with this tag always comes: the sender either got its
//     batches (it ships its swap before awaiting its own) or it did not
//     (the server saw the failed dispatch and sent the cancellation);
//   - anything older is a stray — a late frame whose rendezvous was
//     cancelled, a duplicate, or the join protocol's tag-0 clone: adopt
//     its parameters if it carries any, drop a stale cancellation;
//   - a lazy (async) worker never rendezvouses, and its tags come from
//     the sender's own iteration counter, so it adopts at once;
//   - a frame too short for a tag is a lost swap, not a death sentence.
//
// A swap frame that carries parameters goes back to the run's swap pool
// here, right after its parameters are decoded (adopted or rejected),
// and by no one else: the sender let go of it at Send, a held frame
// stays untouched in the stash until the verdict that decodes it, and a
// cancellation, a lost swap or one whose receiver crashed is left to
// the collector.
//
// Aggregation traffic (a child's msgAgg, the server's msgAggSkip) tagged
// beyond lastRound overtook our own batches: hold it for that round's
// collect window. Tagged lastRound inside the collect window it is
// delivered; anything else is a straggler whose round we already
// forwarded, or corrupt — its contribution is lost and the server's
// deadline machinery accounts for the missing contributors.
//
// Pings, clone requests and batches are delivered only to the main
// loop. For pings that is deliberate: a worker stuck in a collect or a
// rendezvous cannot pong, so the server keeps ticking its escalation
// counter and eventually demotes it, closing its inbox and unblocking
// it — a pong is real evidence of life, not just of a reachable
// transport. msgStop is delivered in every window: shutdown beats the
// forward and the swap alike.
func (w *worker) triage(msg simnet.Message, win window) verdict {
	switch msg.Type {
	case msgStop:
		return deliver
	case msgSwap:
		r, params, err := decodeSwap(msg.Payload)
		if err != nil {
			return drop
		}
		v := drop
		if !w.cfg.Async {
			if r > w.lastRound || r == w.lastRound && win == winCollect {
				return hold
			}
			if r == w.lastRound && win == winSwap {
				v = deliver
			}
		}
		if len(params) > 0 {
			// All or nothing: corrupt parameters leave our own D intact.
			// Either way the frame is read and this goroutine, its only
			// reader, puts it back for the next sender.
			_ = decodeDiscParamsInto(w.d, params)
			w.pools.swap.put(msg.Payload)
		}
		return v
	case msgAgg, msgAggSkip:
		r, ok := aggRound(msg.Payload)
		switch {
		case ok && r > w.lastRound:
			return hold
		case ok && r == w.lastRound && win == winCollect:
			return deliver
		}
		return drop
	}
	if win == winMain {
		return deliver
	}
	return hold
}

// recv returns the next message triage delivers to window win: the
// stash first, in arrival order (lastRound or the window may have moved
// since a message was held), then the inbox. A closed inbox — the
// fail-stop crash — reads as a msgStop nobody sent, so every reader has
// one way to end. ok is false only when expire fired first.
func (w *worker) recv(win window, expire <-chan time.Time) (msg simnet.Message, ok bool) {
	for i := 0; i < len(w.stash); {
		msg := w.stash[i]
		v := w.triage(msg, win)
		if v == hold {
			i++
			continue
		}
		// slices.Delete zeroes the vacated slot: a held swap payload is
		// megabytes and must not stay reachable from the backing array.
		w.stash = slices.Delete(w.stash, i, i+1)
		if v == deliver {
			return msg, true
		}
	}
	inbox := w.net.Inbox(w.name)
	for {
		select {
		case msg, open := <-inbox:
			if !open {
				return simnet.Message{Type: msgStop}, true
			}
			switch w.triage(msg, win) {
			case deliver:
				return msg, true
			case hold:
				w.stash = append(w.stash, msg)
			}
		case <-expire:
			return simnet.Message{}, false
		}
	}
}

// run processes messages until stopped or crashed (inbox closed).
// w.done must be initialised before the goroutine starts.
func (w *worker) run() {
	defer w.once.Do(func() { close(w.done) })
	for {
		msg, _ := w.recv(winMain, nil)
		switch msg.Type {
		case msgStop:
			return
		case msgPing:
			// Liveness probe: the server suspects us (our feedback missed
			// a round deadline). Only the main loop answers (see triage).
			_ = w.net.Send(simnet.Message{
				From: w.name, To: serverName, Type: msgPong, Kind: simnet.WtoC,
			})
		case msgClone:
			// The server asked for a copy of our discriminator to
			// bootstrap a joining worker (§IV-A).
			if err := w.net.Send(simnet.Message{
				From: w.name, To: serverName, Type: msgDParams,
				Kind: simnet.WtoC, Payload: encodeDiscParams(w.d, w.cfg.SwapPrec),
			}); err != nil {
				return
			}
		case msgBatches:
			if !w.handleBatches(msg) {
				return
			}
		}
	}
}

// handleBatches runs one global iteration at the worker: L local
// discriminator steps on (X^(r), X^(d)), the error feedback on X^(g),
// and the swap when commanded. Returns false when the worker must stop.
func (w *worker) handleBatches(msg simnet.Message) bool {
	if err := decodeBatches(msg.Payload, &w.bm, msg.Frames...); err != nil {
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
		xr, lr := w.sampler.Sample(w.cfg.Batch)
		for l := 0; l < w.cfg.DiscSteps; l++ {
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
			Kind: simnet.WtoW, Payload: encodeSwap(w.pools.swap, bm.Round, w.d, w.cfg.SwapPrec),
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
			Kind: simnet.WtoC, Payload: encodeFeedback(w.pools.feedback, fn, w.cfg.Compress),
		}); err != nil {
			return false
		}
	} else if !w.sendAggregate(fn) {
		return false
	}
	if bm.SwapTo != "" && !w.cfg.Async {
		// The rendezvous: block until this round's replacement
		// discriminator (or its cancellation) resolves it — see triage.
		msg, _ := w.recv(winSwap, nil)
		return msg.Type != msgStop
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
// false when the worker must stop (stopped or crashed while collecting,
// or the parent IS the server and it is gone — the same death the bare
// feedback send takes).
func (w *worker) sendAggregate(fn *tensor.Tensor) bool {
	bm := &w.bm
	if !w.collectChildren() {
		return false
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
	mode := w.cfg.Compress
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
// honouring msgAggSkip releases and the AggWait deadline. It returns
// false when the worker must stop instead of forwarding.
func (w *worker) collectChildren() bool {
	bm := &w.bm
	if w.aggGot == nil {
		w.aggGot = make(map[string][]byte, len(bm.Children))
	} else {
		clear(w.aggGot)
	}
	if len(bm.Children) == 0 {
		return true
	}
	need := make(map[string]bool, len(bm.Children))
	for _, c := range bm.Children {
		need[c] = true
	}
	var expire <-chan time.Time
	if bm.AggWait > 0 {
		expire = time.After(time.Duration(bm.AggWait) * time.Millisecond)
	}
	for len(need) > 0 {
		msg, ok := w.recv(winCollect, expire)
		if !ok {
			// Deadline: forward the partial reduction. Missing children
			// miss the round; the server's accounting notices.
			return true
		}
		if msg.Type == msgStop {
			return false
		}
		w.absorbAgg(msg, need)
	}
	return true
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

// wait blocks until the worker goroutine has exited.
func (w *worker) wait() {
	if w.done != nil {
		<-w.done
	}
}
