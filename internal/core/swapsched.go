package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// SwapSchedule generalises the paper's SWAP step (§IV-C1): given the
// round's active workers it decides which worker ships its
// discriminator where. The ring (a uniform random cyclic permutation —
// the paper's gossip realisation) is one instance; shuffle and gossip
// pairings slot in without touching the round-tagged rendezvous
// machinery, because the engine only consumes the returned successor
// map: every key sends its discriminator to its value and then blocks
// in its rendezvous for the frame (or cancellation) tagged with this
// round (worker.triage).
//
// Contract: the returned map's key set must equal its value set —
// every worker that sends also receives exactly one discriminator, so
// each rendezvous has a matching frame in flight (the deadlock-freedom
// argument in worker.handleBatches relies on it). Workers absent from
// the map sit the swap out. Implementations may consume the server
// RNG; RingSwap must consume it exactly like the pre-interface sattolo
// call so the strict engine's bitwise pin holds for the default
// configuration.
type SwapSchedule interface {
	// Name identifies the schedule ("ring", "shuffle", "gossip:2", ...).
	Name() string
	// Plan returns the successor map for one swap round over the
	// active workers (nil or empty = no swaps this round).
	Plan(active []string, rng *rand.Rand) map[string]string
}

// RingSwap is the paper's schedule: one uniform random cycle over all
// active workers (Sattolo's algorithm), so every discriminator moves
// and none returns to its sender. The default.
type RingSwap struct{}

// Name implements SwapSchedule.
func (RingSwap) Name() string { return "ring" }

// Plan implements SwapSchedule.
func (RingSwap) Plan(active []string, rng *rand.Rand) map[string]string {
	if len(active) < 2 {
		return nil
	}
	return sattolo(active, rng)
}

// ShuffleSwap pairs the active workers uniformly at random and has
// each pair exchange discriminators (an involution: a→b and b→a). With
// an odd count one worker sits out. Compared to the ring, a shuffle
// mixes the same number of discriminators per swap round but with
// two-cycles instead of one long cycle — discriminators revisit shards
// sooner, an alternative mixing pattern for topology experiments.
type ShuffleSwap struct{}

// Name implements SwapSchedule.
func (ShuffleSwap) Name() string { return "shuffle" }

// Plan implements SwapSchedule.
func (ShuffleSwap) Plan(active []string, rng *rand.Rand) map[string]string {
	if len(active) < 2 {
		return nil
	}
	p := append([]string(nil), active...)
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	out := make(map[string]string, len(p))
	for i := 0; i+1 < len(p); i += 2 {
		out[p[i]], out[p[i+1]] = p[i+1], p[i]
	}
	return out
}

// GossipSwap exchanges discriminators between Pairs random pairs per
// swap round and leaves everyone else in place — sparse gossip, the
// cheap end of the swap-traffic spectrum (2·Pairs swap frames instead
// of K). Pairs 0 defaults to max(1, ⌊K/4⌋).
type GossipSwap struct {
	Pairs int
}

// Name implements SwapSchedule.
func (g GossipSwap) Name() string {
	if g.Pairs <= 0 {
		return "gossip"
	}
	return fmt.Sprintf("gossip:%d", g.Pairs)
}

// Plan implements SwapSchedule.
func (g GossipSwap) Plan(active []string, rng *rand.Rand) map[string]string {
	if len(active) < 2 {
		return nil
	}
	pairs := g.Pairs
	if pairs <= 0 {
		pairs = len(active) / 4
		if pairs < 1 {
			pairs = 1
		}
	}
	if pairs > len(active)/2 {
		pairs = len(active) / 2
	}
	p := append([]string(nil), active...)
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	out := make(map[string]string, 2*pairs)
	for i := 0; i < 2*pairs; i += 2 {
		out[p[i]], out[p[i+1]] = p[i+1], p[i]
	}
	return out
}

// ParseSwapSchedule resolves a schedule spec: "" or "ring" (the
// default), "shuffle", or "gossip"/"gossip:<pairs>".
func ParseSwapSchedule(spec string) (SwapSchedule, error) {
	switch {
	case spec == "" || spec == "ring":
		return RingSwap{}, nil
	case spec == "shuffle":
		return ShuffleSwap{}, nil
	case spec == "gossip":
		return GossipSwap{}, nil
	case strings.HasPrefix(spec, "gossip:"):
		n, err := strconv.Atoi(spec[len("gossip:"):])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("core: bad gossip pair count in %q (want gossip:<pairs≥1>)", spec)
		}
		return GossipSwap{Pairs: n}, nil
	default:
		return nil, fmt.Errorf("core: unknown swap schedule %q (want ring, shuffle or gossip[:pairs])", spec)
	}
}
