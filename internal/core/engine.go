package core

// The synchronous round engine. Algorithm 1's global iteration is
// decomposed into composable stages over engine-owned buffers:
//
//	prepare   — membership: crashes, joins, client sampling, k clamp
//	generate  — k latent draws, k generator forwards, one wire frame
//	            per batch (tensor framing ++ labels, encoded once)
//	route     — SWAP permutation + the §IV-B1 SPLIT assignment, then
//	            the per-worker messages (two batch frames by
//	            reference plus a routing tail) fanned out through
//	            internal/parallel
//	dispatch  — simnet.BroadcastEach; an ErrNodeDown destination is
//	            suspected (or, without a round deadline, demoted
//	            fail-stop style) instead of aborting the run
//	collect   — one contribution frame per direct child of the server,
//	            accounting every dispatched worker, bounded by
//	            RoundTimeout with quorum degradation
//	apply     — aggregate per generated batch, backprop through G,
//	            Adam step, eval hook
//
// There is one collect and one apply. The paper's flat star is the nil
// topology and so the nil aggregation plan (r.plan == nil): every
// active worker is a direct child of the server, nobody aggregates, and
// each worker's bare msgFeedback frame is ingested as a
// single-contributor entry. A tree only changes who the direct children
// are and how many contributors one frame carries. What the bitwise pin
// protects is therefore the star's wire frames and arithmetic, not a
// separate code path.
//
// One driver, run, composes the stages. In strict mode it is the
// paper's barrier loop: bitwise-identical generator parameters to a
// serial replay of Algorithm 1 (TestStrictEngineMatchesSerialReference).
// Config.Pipeline moves one step: generate for round t+1 runs right
// after round t's dispatch, overlapping the workers' compute (§VII.1:
// "fresh batches of data can be generated frequently, so that they can
// be sent to idle workers"), trading exactly one iteration of
// generator-parameter staleness for the overlap; the same replay run on
// that schedule pins it bitwise too
// (TestPipelinedEngineMatchesSerialReference).
//
// Buffer ownership: a round's slices and maps belong to the engine and
// are reset — not reallocated — when the round slot is reused. The
// dispatched messages reference the round's batch frames, segment lists
// and routing tails instead of copying them (simnet.Message's frame
// contract), so those buffers are in flight until every recipient has
// decoded its message — possibly across a round boundary, when a worker
// stashes batches while it awaits a swap, or is late past the deadline.
// A worker decodes its batches before it answers, so the rule reset
// enforces is: a slot's buffers are reused only if its last round ended
// with every dispatched worker in got; otherwise they are dropped and
// the next round allocates fresh ones
// (TestLateBatchesNeverSeeReusedFrames). A star feedback carries no
// round tag, so an answer proves the decode only on a transport that
// delivers each pair's messages once and in order — the frame contract
// on simnet.Message, which is why ChaosNet copies every framed message.
// The server's half of the feedback path is pooled too: a star feedback
// frame returns to the run's feedback pool (framePools) that workers
// encode from once decoded, and its decoded tensor returns to the
// tensor pool after apply. A swap frame goes worker to worker: the
// worker that decodes one returns it to the run's swap pool, right
// after decoding (worker.triage).

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"mdgan/internal/cluster"
	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/opt"
	"mdgan/internal/parallel"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// server drives the global iterations.
type server struct {
	// cfg is the run's one Config, with Train's defaults filled in.
	cfg          *Config
	g            *gan.Generator
	optG         *opt.Adam
	net          simnet.Net
	pools        framePools // the run's, shared with the workers
	rng          *rand.Rand
	k            int
	m            *cluster.Membership
	swapInterval int
	eval         EvalFunc
	spawn        func(*dataset.Dataset) (*worker, error)
	// feedbackShape validates async feedback decodes: the shape of the
	// last generated batch, set before any feedback can arrive.
	feedbackShape []int
	// probes tracks suspects pinged since the last probe tick; a pong or
	// feedback clears the entry (reinstating the worker), an entry still
	// present at the next tick is another miss.
	probes map[string]bool
	// defense is the cross-round feedback-quality scorer (nil = off).
	defense *defense
	// joinedRound records each joiner's entry iteration while its
	// Config.JoinWarmup ramp runs.
	joinedRound map[string]int
	// retireAt maps iteration → names of the workers whose Lifetime
	// ends at its start (processed by prepare, before joins).
	retireAt map[int][]string
	// aggSc recycles the robust-aggregation scratch across rounds; wsSc
	// recycles apply's per-group weight vector.
	aggSc aggScratch
	wsSc  []float64
	// updates counts generator updates applied (the engine's Iters).
	updates int
	// rounds are the engine-owned per-stage buffers: slot 0 for strict
	// mode, both slots alternating in pipelined mode.
	rounds [2]round
}

// round owns the per-stage state of one synchronous global iteration.
type round struct {
	it     int
	k      int               // generated batches this round
	active []string          // workers targeted this round (post-sampling)
	sent   map[string]bool   // dispatch succeeded; a feedback is expected
	gIdx   map[string]int    // worker → generated-batch index (SPLIT)
	swapTo map[string]string // SWAP successor per worker ("" = none)

	zs    []*tensor.Tensor // latent draws behind each generated batch
	labs  [][]int
	shape []int // generated-batch shape (bounds feedback decodes)
	msgs  []simnet.Message
	// frames holds one wire frame per generated batch (tensor framing
	// followed by the label framing), each encoded exactly once. A
	// worker's message references two of them through its pair in segs
	// and owns only its routing tail in tails. All three are reused
	// round over round under the rule reset enforces (see the file
	// comment).
	frames [][]byte
	segs   [][]byte
	tails  [][]byte

	// Collect-stage state. plan is this round's aggregation plan; nil is
	// the star (every active worker feeds the server directly).
	plan *cluster.Plan
	// ents holds the decoded frame of each direct child that reported:
	// one single-contributor entry for a msgFeedback, the entries it
	// carries for a msgAgg. apply merges them in plan order.
	ents map[string][]aggEntry
	// got is the contributor set: every worker whose feedback reached the
	// server this round, on its own or inside an aggregate.
	got map[string]bool
	// failed marks the dispatched workers this round stopped waiting for
	// (unreachable route, corrupt sender, demotion, quorum cut-off). It
	// stays inside sent and disjoint from got, so the round is complete
	// at len(got)+len(failed) == len(sent). Lazily allocated, like
	// reparented: a fault-free round touches neither.
	failed map[string]bool
	// reparented dedups the per-round reparent charge per aggregator.
	reparented map[string]bool

	// Apply-stage reusable buffers: per generated batch, the direct
	// children that reported on it and the tensors they reported (a
	// worker's feedback, or an aggregator's partial sum), the per-group
	// pooled gradients, and — on weighted rounds — the group weights.
	groupNames [][]string
	groupFeeds [][]*tensor.Tensor
	outGrads   []*tensor.Tensor
	groupWs    []float64
}

// reset prepares the round slot for iteration it, reusing backing
// storage — slices are truncated and maps cleared in place. The buffers
// the slot's last round dispatched by reference are kept only if every
// worker they went to answered, and so decoded them; a worker failed or
// given up on may still hold its message unread, so they are dropped
// instead and generate and route allocate fresh ones.
func (r *round) reset(it int) {
	if len(r.got) < len(r.sent) {
		r.frames, r.segs, r.tails = nil, nil, nil
	}
	r.it = it
	r.k = 0
	r.active = r.active[:0]
	r.swapTo = nil
	r.zs = r.zs[:0]
	r.labs = r.labs[:0]
	r.shape = r.shape[:0]
	r.msgs = r.msgs[:0]
	if r.sent == nil {
		r.sent = make(map[string]bool)
	} else {
		clear(r.sent)
	}
	if r.gIdx == nil {
		r.gIdx = make(map[string]int)
	} else {
		clear(r.gIdx)
	}
	if r.ents == nil {
		r.ents = make(map[string][]aggEntry)
		r.got = make(map[string]bool)
	} else {
		clear(r.ents)
		clear(r.got)
	}
	r.plan = nil
	clear(r.failed)
	clear(r.reparented)
}

// parent, children and subtree read the round's aggregation plan. With
// no plan (the star) every worker's parent is the server, the server's
// children are the active workers in dispatch order, and nothing is
// routed through anyone else.
func (r *round) parent(name string) string {
	if r.plan == nil {
		return serverName
	}
	return r.plan.Parent[name]
}

func (r *round) children(name string) []string {
	switch {
	case r.plan != nil:
		return r.plan.Children[name]
	case name == serverName:
		return r.active
	}
	return nil
}

func (r *round) subtree(name string) []string {
	if r.plan == nil {
		return []string{name}
	}
	return r.plan.Subtree(name)
}

// waiting reports whether collect still expects name's contribution.
func (r *round) waiting(name string) bool {
	return r.sent[name] && !r.got[name] && !r.failed[name]
}

// fail stops the round waiting for name (a no-op unless it is).
func (r *round) fail(name string) {
	if !r.waiting(name) {
		return
	}
	if r.failed == nil {
		r.failed = make(map[string]bool)
	}
	r.failed[name] = true
}

// prepare runs the membership stage for iteration it: scheduled
// crashes, dynamic joins, client sampling. It fills r.active and, when
// clampK is true, sets r.k = min(server k, active count). A round
// generated ahead (pipelined mode) was generated before its membership
// was decided, so it keeps the k chosen then.
func (s *server) prepare(r *round, clampK bool) error {
	s.m.ApplyCrashes(r.it)
	s.processRetirements(r.it)
	if err := s.processJoins(r.it, s.spawn); err != nil {
		return err
	}
	if s.cfg.RoundTimeout > 0 {
		s.tickProbes()
	}
	r.active = append(r.active[:0], s.m.Sample()...)
	// Every dispatchable worker is currently suspect: rather than ending
	// training while live workers may yet rejoin, wait for evidence of
	// life. Bounded: each fruitless wait ticks every suspect's
	// escalation counter, so if nobody ever answers they all demote and
	// the loop exits with an empty active set (training ends).
	for len(r.active) == 0 && s.cfg.RoundTimeout > 0 && s.m.NumSuspect() > 0 {
		if !s.awaitRejoin() {
			s.tickProbes()
		}
		r.active = append(r.active[:0], s.m.Sample()...)
	}
	if clampK {
		r.k = s.k
		if r.k > len(r.active) {
			r.k = len(r.active)
		}
	}
	return nil
}

// generate runs the generation stage: r.k latent draws and generator
// forwards, each batch encoded into its wire frame exactly once. The
// forward output is consumed (encoded) before the next forward clobbers
// it, so no clone is needed; apply re-forwards from r.zs to restore the
// layer caches batch by batch.
func (s *server) generate(r *round) {
	if cap(r.frames) < r.k {
		r.frames = make([][]byte, r.k)
	} else {
		r.frames = r.frames[:r.k]
	}
	for j := 0; j < r.k; j++ {
		z, lab := s.g.SampleZ(s.cfg.Batch, s.rng)
		x := s.g.Forward(z, lab, true)
		r.zs = append(r.zs, z)
		r.labs = append(r.labs, lab)
		r.shape = append(r.shape[:0], x.Shape()...)
		frame := x.AppendBinary(r.frames[j][:0])
		r.frames[j] = appendLabels(frame, lab)
	}
}

// route runs the routing stage: the SWAP permutation for this
// iteration (a uniform random cyclic permutation over the active
// workers realises the paper's random gossip SWAP deterministically),
// the §IV-B1 SPLIT assignment X^(g) = X^(n mod k), X^(d) =
// X^((n+1) mod k), and the per-worker messages: the two batch frames by
// reference, then the worker's own routing tail. Message assembly is
// independent per worker (the batch frames are only read), so it fans
// out on the scheduler.
func (s *server) route(r *round) {
	r.swapTo = nil
	if s.swapInterval > 0 && r.it%s.swapInterval == 0 && len(r.active) > 1 {
		r.swapTo = s.cfg.SwapSched.Plan(r.active, s.rng)
	}
	// A tree's aggregation plan is recomputed fresh every round from the
	// active set — deterministic and RNG-free (the cluster package's
	// topology contract), so a membership change reparents orphans as a
	// plain side effect of replanning, without disturbing the pinned RNG
	// streams.
	r.plan = nil
	if s.cfg.Topology != nil {
		r.plan = s.cfg.Topology.Plan(serverName, r.active)
	}
	// Aggregators bound their own wait at half the round deadline so a
	// partial reduction (a child's frame was lost) still reaches the
	// server before ITS timer expires — otherwise every lost child frame
	// would cost the aggregator's whole accounted subtree a timeout.
	aggWait := 0
	if s.cfg.RoundTimeout > 0 {
		aggWait = int(s.cfg.RoundTimeout / 2 / time.Millisecond)
		if aggWait < 1 {
			aggWait = 1
		}
	}
	for i, name := range r.active {
		r.gIdx[name] = i % r.k
	}
	n := len(r.active)
	r.msgs = slices.Grow(r.msgs[:0], n)[:n]
	r.segs = slices.Grow(r.segs[:0], 2*n)[:2*n]
	for len(r.tails) < n {
		r.tails = append(r.tails, nil)
	}
	parallel.ForceFor(len(r.active), func(ws, we int) {
		for i := ws; i < we; i++ {
			name := r.active[i]
			gi := i % r.k
			di := (i + 1) % r.k
			tail := batchesMsg{SwapTo: r.swapTo[name], Round: r.it, GIdx: gi, AggWait: aggWait}
			// On the star parent and children stay empty: the worker answers
			// with a bare msgFeedback, the frame the wire-byte pins count.
			if r.plan != nil {
				tail.Parent, tail.Children = r.plan.Parent[name], r.plan.Children[name]
			}
			segs := r.segs[2*i : 2*i+2 : 2*i+2]
			segs[0], segs[1] = r.frames[di], r.frames[gi] // X^(d) ++ L^(d), X^(g) ++ L^(g)
			r.tails[i] = appendBatchesTail(r.tails[i][:0], &tail)
			r.msgs[i] = simnet.Message{
				From: serverName, To: name, Type: msgBatches,
				Kind: simnet.CtoW, Frames: segs, Payload: r.tails[i],
			}
		}
	})
}

// dispatch sends the routed payloads. A destination that is down
// (simnet.ErrNodeDown — a fail-stop crash that raced the round, or a
// dead peer on a real transport) loses this round and its swap receiver
// is released; with a round deadline configured it is suspected
// (transient until proven otherwise — TCPNet maps a retried-out peer
// here too), without one it is demoted fail-stop style. Any other
// transport error stays fatal.
func (s *server) dispatch(r *round) error {
	errs := simnet.BroadcastEach(s.net, r.msgs)
	// sent is complete before any failure is processed: failing a subtree
	// below marks only workers that were actually dispatched to.
	for i, err := range errs {
		if err == nil {
			r.sent[r.active[i]] = true
		}
	}
	for i, err := range errs {
		name := r.active[i]
		switch {
		case err == nil:
		case errors.Is(err, simnet.ErrNodeDown):
			if s.cfg.RoundTimeout > 0 {
				s.m.Suspect(name)
			} else {
				s.m.Fail(name)
			}
			s.cancelSwap(r, name)
			s.failSubtree(r, name)
		default:
			return fmt.Errorf("core: send batches: %w", err)
		}
	}
	return nil
}

// failSubtree gives up on everything routed through name this round —
// just name on the star. A worker whose dispatch failed, or whose frame
// was corrupt, delivers nothing its planned subtree sent it (after a
// failed dispatch the children address a parent that has no round to
// collect them into; those frames die in its future-round stash), so
// the whole subtree stops being waited for, name's direct children are
// charged a reparent (the next round's plan rehomes them), and a worker
// parent gets a skip release so it stops waiting for name's slot.
//
// BroadcastEach completes every send before dispatch examines the
// errors, so on a FIFO per-pair transport the skip can never overtake
// the parent's own batches frame.
func (s *server) failSubtree(r *round, name string) {
	for _, n := range r.subtree(name) {
		r.fail(n)
	}
	s.noteReparented(r, name)
	if parent := r.parent(name); parent != serverName {
		_ = s.net.Send(simnet.Message{
			From: serverName, To: parent, Type: msgAggSkip, Kind: simnet.CtoW,
			Payload: encodeAggSkip(r.it, name),
		})
	}
}

// noteReparented charges one reparent per direct child of a failed or
// suspect aggregator, at most once per round per aggregator (a deadline
// can expire several times while the same aggregator stays missing).
func (s *server) noteReparented(r *round, aggName string) {
	kids := r.children(aggName)
	if len(kids) == 0 || r.reparented[aggName] {
		return
	}
	if r.reparented == nil {
		r.reparented = make(map[string]bool)
	}
	r.reparented[aggName] = true
	for _, c := range kids {
		s.m.NoteReparent(c)
	}
}

// cancelSwap releases the worker that was routed to receive the demoted
// worker's discriminator: a bare-round-tag msgSwap payload means "no
// swap this round, keep your own D" (the receiver would otherwise block
// in its rendezvous forever, since the demoted worker never got its
// batches and so never sends). The demoted worker's discriminator is
// lost with it — the fail-stop model of Fig. 5 — and its receiver keeps
// a copy of its own, which the next scheduled swap re-mixes.
//
// The round tag closes the former known limitation: on a transport
// where worker→worker frames can trail the server's sends (TCP uses one
// connection per pair), this cancellation can arrive while its receiver
// is still blocked in the PREVIOUS round's rendezvous. Untagged, it
// would resolve that rendezvous and silently displace the real swap
// still in flight; tagged, the receiver buffers it, completes the old
// rendezvous with the matching-round frame, and later skips the
// cancellation in its main loop (regression:
// TestCancelSwapCannotResolveEarlierRendezvous).
func (s *server) cancelSwap(r *round, name string) {
	to := r.swapTo[name]
	if to == "" {
		return
	}
	_ = s.net.Send(simnet.Message{
		From: serverName, To: to, Type: msgSwap, Kind: simnet.CtoW,
		Payload: encodeSwapCancel(r.it),
	})
}

// collect ingests one contribution frame per direct child of the server
// — every dispatched worker on the star, the root-level aggregators
// under a tree (fan-in-bounded ingress, the scaling win of the tree) —
// and accounts every contributor the frames cover, until each
// dispatched worker has either contributed or been given up on.
//
// Without a deadline (RoundTimeout 0 — the strict fail-stop-only mode
// the bitwise pin replays) it blocks until that holds. With one, an
// expiry marks every missing worker suspect (releasing its swap
// receiver and, for an aggregator, charging its children a reparent)
// and, once at least quorum contributions are in, applies the round
// with what it has instead of deadlocking the run on a hung worker;
// below quorum the timer re-arms and the wait continues — bounded,
// because each expiry ticks the missing workers' escalation counters
// until they demote and stop being waited for.
//
// Stale or unexpected messages are skipped, except as evidence of life
// (evidence). A corrupt frame strikes its sender (strike), fails
// everything routed through it, and the round continues.
func (s *server) collect(r *round) error {
	if len(r.sent) == 0 {
		return nil
	}
	var canceled map[string]bool
	var deadline <-chan time.Time
	if s.cfg.RoundTimeout > 0 {
		deadline = time.After(s.cfg.RoundTimeout)
	}
	for len(r.got)+len(r.failed) < len(r.sent) {
		msg, ok, err := s.recv(deadline)
		if err != nil {
			return err
		}
		if !ok {
			if canceled == nil {
				canceled = make(map[string]bool)
			}
			// Every missing worker takes a miss (r.active iteration
			// keeps the order deterministic). Its swap receiver is
			// released exactly once — the suspect, having never seen
			// its batches, will never send the swap it owes — and a
			// missing aggregator strands its children's only route to
			// the server, so they are charged a reparent.
			for _, name := range r.active {
				if !r.waiting(name) {
					continue
				}
				s.m.NoteTimeout(name)
				demoted := s.m.Suspect(name)
				if !canceled[name] {
					canceled[name] = true
					s.cancelSwap(r, name)
				}
				s.noteReparented(r, name)
				if demoted {
					r.fail(name)
				}
			}
			if len(r.got) >= s.cfg.Quorum {
				// Quorum reached: apply the round without the
				// missing (they stay suspect until probed back in).
				for _, name := range r.active {
					r.fail(name)
				}
			} else {
				deadline = time.After(s.cfg.RoundTimeout)
			}
			continue
		}
		from := msg.From
		rt, tagged := aggRound(msg.Payload)
		if msg.Type != msgFeedback && msg.Type != msgAgg || !r.waiting(from) ||
			r.parent(from) != serverName || msg.Type == msgAgg && tagged && rt != r.it {
			// Not a contribution usable this round (a pong, a duplicate,
			// already given up on, not a direct child, or an aggregate
			// quorum moved on without) — but possibly evidence of life.
			s.evidence(msg)
			continue
		}
		var ents []aggEntry
		if msg.Type == msgAgg {
			ents, err = r.decodeAgg(msg.Payload, from)
		} else if ents, err = r.decodeFeedback(msg.Payload, from); err == nil {
			s.pools.feedback.put(msg.Payload)
		}
		if err != nil {
			// Corrupt frame: strike the sender and continue the round.
			// Its swap receiver needs no release — workers ship their
			// swap before their contribution, so it is already in flight.
			s.strike(from)
			s.failSubtree(r, from)
			continue
		}
		r.ents[from] = ents
		for _, e := range ents {
			for _, name := range e.Contribs {
				// A contributor computed a feedback this round: evidence
				// of life, even if an earlier expiry suspected it — or
				// demoted it while its parent still held the sum, which
				// carries its term all the same, so it counts.
				delete(r.failed, name)
				r.got[name] = true
				s.noteAlive(name)
			}
		}
	}
	return nil
}

// decodeFeedback decodes from's bare feedback frame into the single
// entry it stands for. The expected shape bounds the decode, so a
// corrupt frame cannot over-allocate. The entry's tensor is pooled;
// releaseFeedbacks returns it after apply.
func (r *round) decodeFeedback(p []byte, from string) ([]aggEntry, error) {
	f, err := decodeFeedbackAny(p, r.shape)
	if err != nil {
		return nil, err
	}
	return []aggEntry{{GIdx: r.gIdx[from], Contribs: []string{from}, Sum: f}}, nil
}

// decodeAgg decodes the aggregate frame direct child from sent and
// checks it against the plan: every entry must name at least one
// contributor, every contributor must be a distinct dispatched member
// of from's planned subtree, listed under the batch index it was routed
// to, and from itself must be among them. Anything else is a corrupt
// frame. The names are outside input — accounting one the sender does
// not speak for would mark an absent worker contributed (and alive) and
// divide the round by the wrong count.
func (r *round) decodeAgg(p []byte, from string) ([]aggEntry, error) {
	// open[n]: n may still be named — in the subtree, dispatched to, and
	// not listed yet.
	open := make(map[string]bool)
	for _, n := range r.subtree(from) {
		open[n] = r.sent[n]
	}
	var ents []aggEntry
	_, err := decodeAggInto(p, r.shape, func(gIdx int, contribs []string, sum *tensor.Tensor) error {
		if len(contribs) == 0 {
			return fmt.Errorf("core: aggregate entry for batch %d names no contributor", gIdx)
		}
		for _, name := range contribs {
			if !open[name] || r.gIdx[name] != gIdx {
				return fmt.Errorf("core: aggregate from %s lists %q under batch %d: not a distinct member of its subtree routed to that batch", from, name, gIdx)
			}
			open[name] = false
		}
		ents = append(ents, aggEntry{GIdx: gIdx, Contribs: append([]string(nil), contribs...), Sum: sum})
		return nil
	})
	if err == nil && open[from] {
		// A sender always folds in its own feedback; accepting a frame
		// without it would leave the round waiting for from forever.
		err = fmt.Errorf("core: aggregate from %s lacks its own contribution", from)
	}
	return ents, err
}

// releaseFeedbacks returns the round's decoded contributions to the
// tensor pool once apply has consumed them.
func (r *round) releaseFeedbacks() {
	for _, ents := range r.ents {
		for i := range ents {
			tensor.Put(ents[i].Sum)
			ents[i].Sum = nil
		}
	}
}

// noteAlive records evidence of life from name: a suspect is reinstated
// and its outstanding probe forgotten. It reports whether name was one.
func (s *server) noteAlive(name string) bool {
	if !s.m.Reinstate(name) {
		return false
	}
	delete(s.probes, name)
	return true
}

// evidence is the one place the server decides what proves a worker
// alive: a pong, or a contribution frame however stale or unusable — its
// sender computed and sent it. The sender, if suspect, is reinstated;
// evidence reports whether it was. Only the sender is believed: outside
// collect there is no plan to check an aggregate's contributor names
// against, and each of them answers its own probe anyway.
func (s *server) evidence(msg simnet.Message) bool {
	switch msg.Type {
	case msgPong, msgFeedback, msgAgg:
		return s.noteAlive(msg.From)
	}
	return false
}

// strike charges name one corrupt frame — the one place that ladder is
// climbed: without a round deadline (strict fail-stop) or at the strike
// budget it is demoted, below the budget it is suspected, which may
// itself escalate. It reports whether name was demoted.
func (s *server) strike(name string) (demoted bool) {
	strikes := s.m.NoteCorrupt(name)
	if s.cfg.RoundTimeout <= 0 || strikes >= s.m.SuspectThreshold() {
		s.m.Fail(name)
		return true
	}
	return s.m.Suspect(name)
}

// expired is a deadline that has already passed: recv(expired) drains
// what is queued without blocking.
var expired = make(chan time.Time)

func init() { close(expired) }

// recv is the server's one inbox read: the next message, or ok=false
// once deadline fires (nil = wait forever). A message already queued
// beats a deadline that has also passed, so evidence of life that
// arrived in time is never lost to the timer. A closed inbox — the
// transport died under the engine — is the one fatal error.
func (s *server) recv(deadline <-chan time.Time) (msg simnet.Message, ok bool, err error) {
	inbox := s.net.Inbox(serverName)
	select {
	case msg, ok = <-inbox:
	default:
		select {
		case msg, ok = <-inbox:
		case <-deadline:
			return msg, false, nil
		}
	}
	if !ok {
		err = fmt.Errorf("core: server inbox closed")
	}
	return msg, ok, err
}

// tickProbes advances the suspect probe cycle at a round boundary: a
// probe that went unanswered since the last tick is another miss
// (possibly escalating the suspect to demotion), then every remaining
// suspect is (re)probed. Pongs reinstate their sender wherever the
// server next reads its inbox (evidence) — a worker stuck outside its
// main loop cannot answer, so reinstatement needs real evidence of
// life, never mere send success (which would flap a dead-but-reachable
// worker in and out of the active set forever).
func (s *server) tickProbes() {
	// A probe answer — or a straggler's own late feedback — may have
	// arrived after the previous collect exited and be sitting unread
	// in the inbox (with an unbuffered transport, the worker is parked
	// mid-Send). Consume that evidence of life before ticking, so a
	// prompt answer is never counted as a miss. No round is in flight
	// at a prepare boundary, so anything queued here is a pong or a
	// stale contribution frame. (A closed inbox is left for the next
	// blocking read to report.)
	for msg, ok, _ := s.recv(expired); ok; msg, ok, _ = s.recv(expired) {
		s.evidence(msg)
	}
	for _, name := range s.m.Suspects() {
		if s.probes[name] {
			s.m.NoteTimeout(name)
			s.m.Suspect(name)
		}
	}
	clear(s.probes)
	for _, name := range s.m.Suspects() {
		if err := s.net.Send(simnet.Message{
			From: serverName, To: name, Type: msgPing, Kind: simnet.CtoW,
		}); err != nil {
			s.m.NoteTimeout(name)
			s.m.Suspect(name) // transport still refuses: another miss
		} else {
			s.probes[name] = true
		}
	}
}

// awaitRejoin blocks up to RoundTimeout for evidence of life from any
// suspect, reinstating the first that answers; it reports whether one
// did. Used when the active set drained entirely — the alternative to
// ending training while suspects may still recover.
func (s *server) awaitRejoin() bool {
	deadline := time.After(s.cfg.RoundTimeout)
	for {
		msg, ok, _ := s.recv(deadline)
		if !ok {
			return false // deadline (or a closed inbox: the next collect reports it)
		}
		if s.evidence(msg) {
			return true
		}
	}
}

// apply merges the contributions per generated batch and backpropagates
// through G. Grouping walks the server's direct children in plan order
// (dispatch order on the star), so the result is independent of message
// arrival order. The per-group merge applies the configured aggregation
// rule (mean = the paper's §IV-B2 averaging; median/trimmed = §VII.3
// robustness, star only); the group result is weighted by
// groupSize/received to keep the global 1/N scaling. The same formula
// serves partial sums: mean(items)·len(items) is their sum whatever each
// item pre-reduced, so a tree round's gradient is the global per-batch
// sum over the contributor count — bitwise the star's when every item
// is one worker's feedback (TestDepthOneTreeMatchesFlatBitwise), within
// reassociation when workers pre-summed (TestTreeAggregationMatchesFlat).
// A round with no contribution (every dispatch failed) applies no
// update.
//
// When the defense or the joiner warm-up assigns non-unit weights
// (roundWeights != nil; star only, Train rejects both under a tree), the
// head-count scaling generalises to weight mass: each group aggregates
// as a weighted mean and contributes its share of the total included
// weight. The nil-weights branch is the arithmetic the bitwise pin
// replays.
//
// The grouping slices, group gradients and aggregation scratch are all
// reused round over round, and the pooled per-group aggregates return
// to the workspace pool right after their backward pass — a
// steady-state apply allocates nothing.
func (s *server) apply(r *round) {
	if len(r.got) == 0 {
		return
	}
	if cap(r.groupNames) < r.k {
		r.groupNames = make([][]string, r.k)
		r.groupFeeds = make([][]*tensor.Tensor, r.k)
	}
	r.groupNames = r.groupNames[:r.k]
	r.groupFeeds = r.groupFeeds[:r.k]
	for j := range r.groupNames {
		r.groupNames[j] = r.groupNames[j][:0]
		r.groupFeeds[j] = r.groupFeeds[j][:0]
	}
	for _, c := range r.children(serverName) {
		for _, e := range r.ents[c] { // none: demoted or missing this round
			r.groupNames[e.GIdx] = append(r.groupNames[e.GIdx], c)
			r.groupFeeds[e.GIdx] = append(r.groupFeeds[e.GIdx], e.Sum)
		}
	}
	weights := s.roundWeights(r)
	if cap(r.outGrads) < r.k {
		r.outGrads = make([]*tensor.Tensor, r.k)
	}
	r.outGrads = r.outGrads[:r.k]
	if weights == nil {
		total := len(r.got)
		for j, fs := range r.groupFeeds {
			r.outGrads[j] = nil
			if len(fs) == 0 {
				continue
			}
			agg := aggregateFeedbacks(fs, s.cfg.Aggregate, &s.aggSc)
			r.outGrads[j] = agg.ScaleInPlace(float64(len(fs)) / float64(total))
		}
	} else {
		if cap(r.groupWs) < r.k {
			r.groupWs = make([]float64, r.k)
		}
		r.groupWs = r.groupWs[:r.k]
		total := 0.0
		for j, fs := range r.groupFeeds {
			r.outGrads[j] = nil
			r.groupWs[j] = 0
			if len(fs) == 0 {
				continue
			}
			ws := s.wsSc[:0]
			for _, name := range r.groupNames[j] {
				ws = append(ws, feedbackWeight(weights, name))
			}
			s.wsSc = ws
			agg, w := aggregateFeedbacksWeighted(fs, ws, s.cfg.Aggregate, &s.aggSc)
			if agg == nil {
				continue
			}
			r.outGrads[j], r.groupWs[j] = agg, w
			total += w
		}
		if total <= 0 {
			return // every feedback excluded: no update this round
		}
		for j, g := range r.outGrads {
			if g != nil {
				g.ScaleInPlace(r.groupWs[j] / total)
			}
		}
	}
	// The first batch's backward pass writes the gradient and the others
	// accumulate into it, so nothing is cleared only to be added to.
	written := false
	for j := 0; j < r.k; j++ {
		if r.outGrads[j] == nil {
			continue
		}
		// Re-forward to restore layer caches for batch j (they were
		// clobbered when batch j+1.. were generated).
		s.g.Forward(r.zs[j], r.labs[j], true)
		if written {
			s.g.Backward(r.outGrads[j])
		} else {
			s.g.BackwardWrite(r.outGrads[j])
			written = true
		}
		tensor.Put(r.outGrads[j])
		r.outGrads[j] = nil
	}
	if !written {
		s.g.ZeroGrads() // no group had a gradient: step on zeros, never on the last round's
	}
	s.optG.Step(s.g.Params())
	s.updates++

	if s.eval != nil && s.cfg.EvalEvery > 0 && r.it%s.cfg.EvalEvery == 0 {
		s.eval(r.it, s.g)
	}
}

// roundWeights computes the per-worker aggregation weights for this
// round: the defense's suspicion down-weights composed with the joiner
// warm-up ramp. It returns nil when every weight is exactly 1, keeping
// a defense-on fault-free round on the unweighted arithmetic the strict
// bitwise pin replays.
func (s *server) roundWeights(r *round) map[string]float64 {
	var weights map[string]float64
	if s.defense != nil {
		weights = s.defense.observe(r)
	}
	if s.cfg.JoinWarmup > 0 && len(s.joinedRound) > 0 {
		for name, joined := range s.joinedRound {
			if !r.got[name] {
				continue
			}
			// Qu et al.'s generator-stability rule: a fresh
			// discriminator's feedback is noise to the generator, so a
			// joiner's weight ramps linearly over its first warm-up
			// rounds instead of jolting the aggregate at full strength.
			age := r.it - joined + 1
			if age >= s.cfg.JoinWarmup {
				delete(s.joinedRound, name) // ramp complete
				continue
			}
			w := float64(age) / float64(s.cfg.JoinWarmup)
			if weights == nil {
				weights = make(map[string]float64, 1)
			}
			if cur, ok := weights[name]; ok {
				weights[name] = cur * w
			} else {
				weights[name] = w // absent means 1: compose onto it
			}
		}
	}
	return weights
}

// feedbackWeight resolves a worker's aggregation weight (absent = 1).
func feedbackWeight(weights map[string]float64, name string) float64 {
	if w, ok := weights[name]; ok {
		return w
	}
	return 1
}

// processRetirements retires the workers whose Lifetime ends at the
// start of iteration it: a graceful protocol stop followed by removal
// from the live set. Unlike a demotion no inbox is closed — the worker
// drains its queue and exits through its own main loop — and because
// retirement happens at a prepare boundary, its final round's feedback
// was already counted and no swap rendezvous of its can be in flight
// (workers ship swaps before feedbacks, and collect saw every
// feedback). A worker that crashed or was demoted before its scheduled
// exit is simply skipped.
func (s *server) processRetirements(it int) {
	for _, name := range s.retireAt[it] {
		if !s.m.Alive(name) {
			continue
		}
		_ = s.net.Send(simnet.Message{
			From: serverName, To: name, Type: msgStop, Kind: simnet.CtoW,
		})
		s.m.Retire(name)
		delete(s.joinedRound, name)
	}
}

// run executes the synchronous Algorithm 1 for iters iterations and
// returns the number of generator updates applied. Each round runs
// prepare → generate → route → dispatch → collect → apply; the server
// RNG draw order is joins → sampling → k latent draws → swap
// permutation, so in strict mode a fixed seed yields generator
// parameters bitwise equal to a serial replay of Algorithm 1.
//
// With pipeline set, one step moves: after dispatching round it the
// server generates round it+1's batches into the other round slot
// while the workers compute (§VII.1), with k clamped by the membership
// bound visible at that point — if crashes at it+1 later shrink the
// active set below k, the surplus batches simply collect no feedback.
// Round it+1 then skips its own generate, and its membership is
// resolved only after round it's feedbacks are in, so a scheduled
// crash can never eat a feedback the strict schedule would have
// counted. Round it+1's batches therefore come from parameters that
// miss exactly round it's update, and round it's apply re-forwards
// through parameters one update newer than the ones that generated its
// batches — the one-update staleness documented on Config.Pipeline.
// With iters = 1 nothing is generated ahead and the run is strict.
func (s *server) run(iters int, pipeline bool) (int, error) {
	cur, nxt := &s.rounds[0], &s.rounds[1]
	ahead := false // cur's batches were generated during the previous round
	for it := 1; it <= iters; it++ {
		if !ahead {
			cur.reset(it)
		}
		if err := s.prepare(cur, !ahead); err != nil {
			return s.updates, err
		}
		if len(cur.active) == 0 || cur.k == 0 {
			return s.updates, nil // every worker crashed: training ends
		}
		if !ahead {
			s.generate(cur)
		}
		s.route(cur)
		if err := s.dispatch(cur); err != nil {
			return s.updates, err
		}
		ahead = pipeline && it < iters
		if ahead {
			nxt.reset(it + 1)
			nxt.k = min(s.k, s.m.ActiveBound())
			s.generate(nxt)
		}
		if err := s.collect(cur); err != nil {
			return s.updates, err
		}
		s.apply(cur)
		cur.releaseFeedbacks()
		if ahead {
			cur, nxt = nxt, cur
		}
	}
	return s.updates, nil
}

// sattolo returns a uniform random cyclic permutation of names as a
// map name → successor. Cyclic permutations have no fixed points, so no
// worker ever "swaps with itself" (which would defeat §IV-C1).
func sattolo(names []string, rng *rand.Rand) map[string]string {
	p := append([]string(nil), names...)
	for i := len(p) - 1; i > 0; i-- {
		j := rng.Intn(i)
		p[i], p[j] = p[j], p[i]
	}
	out := make(map[string]string, len(p))
	for i, name := range p {
		out[name] = p[(i+1)%len(p)]
	}
	return out
}
