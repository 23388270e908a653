package core

import (
	"fmt"

	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/simnet"
)

// Dynamic worker join (paper §IV-A): "extra workers can enter the
// learning task if they enter with a pre-trained discriminator (e.g., a
// copy of another worker discriminator)".
//
// The join protocol is server-mediated so it stays deterministic:
//
//  1. at the end of iteration i the server registers the new node and
//     spawns its goroutine (with a fresh data shard supplied by the
//     caller);
//  2. the server asks a uniformly-chosen live donor for its
//     discriminator (msgClone → msgDParams);
//  3. the server forwards the parameters to the joiner (msgSwap — the
//     worker loop already adopts stray swap payloads), then adds it to
//     the membership, so the joiner's first batches arrive strictly
//     after its pre-trained discriminator.
//
// A join therefore costs 2·|θ| of traffic (donor→server→joiner), at
// the configured swap wire precision.

// Message types used by the join protocol.
const (
	msgClone   = "clone"   // C→W: please send me your discriminator
	msgDParams = "dparams" // W→C: discriminator parameters (clone reply)
)

// processJoins spawns and initialises the workers scheduled to join at
// iteration it. Called by the engine's prepare stage between rounds.
func (s *server) processJoins(it int, spawn func(shard *dataset.Dataset) (*worker, error)) error {
	shards := s.cfg.JoinAt[it]
	if len(shards) == 0 {
		return nil
	}
	for _, shard := range shards {
		// Prefer an active (non-suspect) donor — a suspect may be
		// unreachable right now; identical to Live on fault-free runs,
		// so the RNG draw stays on the pinned stream.
		donors := s.m.Active()
		if len(donors) == 0 {
			donors = s.m.Live()
		}
		if len(donors) == 0 {
			return fmt.Errorf("core: worker join at iteration %d with no live donor", it)
		}
		donor := donors[s.rng.Intn(len(donors))]
		w, err := spawn(shard)
		if err != nil {
			return fmt.Errorf("core: join spawn: %w", err)
		}
		// Ask the donor for its discriminator.
		if err := s.net.Send(simnet.Message{
			From: serverName, To: donor, Type: msgClone,
			Kind: simnet.CtoW, Payload: []byte(serverName),
		}); err != nil {
			return fmt.Errorf("core: clone request to %s: %w", donor, err)
		}
		// Wait for the reply. Anything else is a straggler, but evidence
		// of life from a probed suspect (a pong, a late feedback or
		// aggregate) must not be silently discarded meanwhile: the
		// tickProbes that follows would charge a miss it did not earn.
		var params []byte
		for params == nil {
			msg, _, err := s.recv(nil)
			if err != nil {
				return fmt.Errorf("core: join at iteration %d: %w", it, err)
			}
			if msg.Type == msgDParams && msg.From == donor {
				params = msg.Payload
			} else {
				s.evidence(msg)
			}
		}
		// Hand the pre-trained discriminator to the joiner before it
		// can see any batches. The swap framing carries round tag 0 —
		// "before any round" — so the joiner's triage adopts it as a
		// stray at once instead of holding it for a rendezvous that will
		// never open (real rounds are numbered from 1).
		if err := s.net.Send(simnet.Message{
			From: serverName, To: w.name, Type: msgSwap,
			Kind: simnet.CtoW, Payload: encodeSwapForward(0, params),
		}); err != nil {
			return fmt.Errorf("core: forward clone to %s: %w", w.name, err)
		}
		s.m.Add(w.name)
		if s.cfg.JoinWarmup > 0 {
			if s.joinedRound == nil {
				s.joinedRound = make(map[string]int)
			}
			s.joinedRound[w.name] = it
		}
	}
	return nil
}

// spawnJoiner builds the worker-spawning closure Train hands to the
// server for dynamic joins.
func spawnJoiner(cfg *Config, pools framePools, net simnet.Net, lc gan.LossConfig, template *gan.Discriminator,
	workers *[]*worker, nextIdx *int) func(*dataset.Dataset) (*worker, error) {
	return func(shard *dataset.Dataset) (*worker, error) {
		i := *nextIdx
		*nextIdx++
		if err := net.Register(workerName(i)); err != nil {
			return nil, err
		}
		// The template discriminator is only the architecture; it is
		// overwritten by the donor's parameters before the first batch
		// arrives.
		w := newWorker(cfg, pools, net, lc, template, i, shard)
		*workers = append(*workers, w)
		go w.run()
		return w, nil
	}
}
