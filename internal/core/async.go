package core

import (
	"fmt"
	"time"

	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// runAsync implements the asynchronous variant the paper sketches in
// §VII.1: "the server may compute a gradient Δw and apply it each time
// it receives a single F_n. Fresh batches of data can be generated
// frequently, so that they can be sent to idle workers."
//
// Differences from the synchronous Algorithm 1:
//   - one generator update per arriving feedback (no barrier);
//   - every worker gets its own freshly-generated batch pair, so
//     effectively k = N;
//   - swaps use the paper's literal GETRANDOMWORKER (uniform random
//     peer) with lazy application at the receiver instead of the
//     coordinated rendezvous, since no global round exists to anchor a
//     permutation.
//
// As the paper notes, a feedback may be computed against stale
// generator parameters; the update is applied regardless, which is the
// standard asynchronous parameter-server trade-off.
//
// Transient faults (Config.RoundTimeout > 0): when no feedback arrives
// for a full timeout, every worker with an outstanding batch takes a
// suspect miss (escalating to demotion after SuspectAfter ticks); a
// suspect whose feedback does arrive is reinstated and re-fed. A
// corrupt feedback frame strikes its sender — re-fed below the strike
// budget, demoted at it — instead of aborting the run. There is no
// ping/pong probing here: with no round barrier, the feedback itself
// is the liveness signal.
func (s *server) runAsync(iters int) (int, error) {
	type genBatch struct {
		z    *tensor.Tensor
		labs []int
	}
	cache := make(map[string]genBatch)  // worker → latents behind its X^(g)
	workerIters := make(map[string]int) // worker → iterations completed
	pending := make(map[string]bool)    // worker → batch outstanding, feedback awaited

	send := func(name string) error {
		zg, lg := s.g.SampleZ(s.cfg.Batch, s.rng)
		// Clone: the X^(g) batch must survive the X^(d) forward below
		// (Forward returns a network-owned buffer).
		xg := s.g.Forward(zg, lg, true).Clone()
		zd, ld := s.g.SampleZ(s.cfg.Batch, s.rng)
		xd := s.g.Forward(zd, ld, true)
		s.feedbackShape = xg.Shape()
		cache[name] = genBatch{z: zg, labs: lg}
		workerIters[name]++
		swapTo := ""
		if s.swapInterval > 0 && workerIters[name]%s.swapInterval == 0 {
			if peer := s.randomPeer(name); peer != "" {
				swapTo = peer
			}
		}
		// No global round exists in async mode; the per-worker iteration
		// count tags the (lazily applied) swaps instead.
		payload := encodeBatches(batchesMsg{Xd: xd, Ld: ld, Xg: xg, Lg: lg, SwapTo: swapTo, Round: workerIters[name]})
		if err := s.net.Send(simnet.Message{
			From: serverName, To: name, Type: msgBatches,
			Kind: simnet.CtoW, Payload: payload,
		}); err != nil {
			return err
		}
		pending[name] = true
		return nil
	}

	for _, name := range s.m.Live() {
		if err := send(name); err != nil {
			return 0, fmt.Errorf("core: async prime %s: %w", name, err)
		}
	}

	updates := 0
	for updates < iters {
		if s.m.NumLive() == 0 {
			return updates, nil
		}
		var deadline <-chan time.Time
		if s.cfg.RoundTimeout > 0 {
			deadline = time.After(s.cfg.RoundTimeout)
		}
		msg, ok, err := s.recv(deadline)
		if err != nil {
			return updates, err
		}
		if !ok {
			// A full timeout with no feedback at all: every worker
			// with an outstanding batch takes a miss (join order for
			// reproducibility). A demoted worker will never answer;
			// a surviving suspect still might — its batch stays
			// outstanding and its feedback reinstates it.
			for _, name := range s.m.Live() {
				if !pending[name] {
					continue
				}
				s.m.NoteTimeout(name)
				if s.m.Suspect(name) {
					delete(pending, name)
				}
			}
			continue
		}
		if msg.Type != msgFeedback || !s.m.Alive(msg.From) {
			continue
		}
		f, err := decodeFeedbackAny(msg.Payload, s.feedbackShape)
		if err != nil {
			// Corrupt frame: strike the sender and keep training — this
			// used to abort the whole run. Below the strike budget the
			// worker is re-fed (its next clean feedback reinstates it);
			// at the budget it is demoted.
			delete(pending, msg.From)
			if !s.strike(msg.From) && send(msg.From) != nil {
				s.m.Fail(msg.From)
			}
			continue
		}
		s.pools.feedback.put(msg.Payload)
		// A suspect's feedback arriving is evidence of life.
		s.noteAlive(msg.From)
		delete(pending, msg.From)
		gb, okc := cache[msg.From]
		if !okc {
			continue
		}
		// Apply Δw from this single feedback (stale-gradient update).
		s.g.Forward(gb.z, gb.labs, true)
		s.g.BackwardWrite(f)
		tensor.Put(f)
		s.optG.Step(s.g.Params())
		updates++

		s.m.ApplyCrashes(updates)
		if s.eval != nil && s.cfg.EvalEvery > 0 && updates%s.cfg.EvalEvery == 0 {
			s.eval(updates, s.g)
		}
		if updates >= iters {
			break
		}
		if s.m.Alive(msg.From) {
			if err := send(msg.From); err != nil {
				// The worker crashed between our liveness check and the
				// send: demote it fail-stop style and continue with the
				// survivors.
				s.m.Fail(msg.From)
				continue
			}
		}
	}
	return updates, nil
}

// randomPeer picks a uniform random live worker different from name
// (the paper's GETRANDOMWORKER).
func (s *server) randomPeer(name string) string {
	var candidates []string
	for _, w := range s.m.Live() {
		if w != name {
			candidates = append(candidates, w)
		}
	}
	if len(candidates) == 0 {
		return ""
	}
	return candidates[s.rng.Intn(len(candidates))]
}
