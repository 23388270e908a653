// Package cluster provides the membership layer shared by the
// distributed training protocols (synchronous and asynchronous MD-GAN
// in internal/core, FL-GAN in internal/flgan): one component that owns
// the live set of workers, the fail-stop crash schedule (Fig. 5),
// dynamic joins (paper §IV-A), per-round client sampling (the §VII.4
// adaptation of federated learning), and the failure lifecycle below.
//
// # Failure model
//
// The layer distinguishes two failure classes:
//
//   - Fail-stop (Fig. 5): a scheduled crash or an unrecoverable
//     transport death. The worker leaves the cluster permanently and
//     its data shard disappears with it (Fail / ApplyCrashes).
//   - Transient: a straggler, a dropped message, a short partition.
//     The worker is *suspected* — skipped for dispatch, all state
//     retained — and re-admitted (Reinstate) when its feedback or
//     transport reappears. Only SuspectThreshold consecutive misses
//     escalate a suspect to the permanent demotion above, so losing a
//     worker's shard for the rest of the run is the last resort, not
//     the only response (§VII.1's straggler relaxation).
//
// Lifecycle state diagram:
//
//	         Suspect (miss)            Suspect ×N (escalation)
//	ACTIVE ------------------> SUSPECT -----------------------> DEMOTED
//	   ^                          |                                ^
//	   |        Reinstate         |                                |
//	   +--------------------------+       Fail / ApplyCrashes      |
//	   +-----------------------------------------------------------+
//
// ACTIVE workers are dispatched to every round; SUSPECT workers are
// skipped (Sample/Active exclude them) but stay in the live set — their
// goroutine, discriminator and shard survive — and are probed by the
// engines; DEMOTED workers are gone fail-stop style (their transport
// inbox is closed). Fault events are counted per worker (faults.go).
//
// Determinism contract: Live returns names in join order (the index
// order workers were Added in), Sample consumes the injected *rand.Rand
// only when sampling is actually active and returns the subset in
// lexicographic order, and ApplyCrashes resolves schedule indices
// against the join order. Two runs that Add the same names, share the
// same schedule and draw from identically-seeded RNGs therefore observe
// identical membership at every iteration — the property the engines'
// bitwise-equivalence tests pin. Suspicion and reinstatement only occur
// in response to faults, so a fault-free run traverses exactly the
// pre-lifecycle code paths.
//
// # Topology contract
//
// The package also owns the communication topology (topology.go): how
// per-round feedback flows back to the server. The paper's flat star is
// the nil *Tree and needs no plan; a Tree produces a Plan each round,
// in which three node roles are implicit:
//
//   - server — the root; consumes the final reduced contributions.
//   - aggregator — a worker with Children in the plan; it reduces its
//     children's feedback frames (summing per generated batch) before
//     forwarding one combined frame to its own parent. Aggregators
//     are ordinary workers: they hold a shard, train a discriminator,
//     and add their own feedback to the reduction.
//   - worker (leaf) — sends its single contribution to its parent.
//
// Rules the planner and its consumers uphold:
//
//   - Plans are recomputed from the active set every round and are a
//     deterministic, RNG-free function of (server, active order).
//     This is also the reparenting rule: when an aggregator dies or
//     goes suspect, it simply drops out of the next round's active
//     set and the fresh plan rehomes its children (counted per child
//     as WorkerFaults.Reparents by the engine). No explicit tree
//     surgery happens mid-round — the engine instead accounts the
//     dead aggregator's Subtree as missing for that round.
//   - The suspect/demote/rejoin lifecycle above composes unchanged: a
//     child stranded by a dead aggregator is suspected at the round
//     deadline like any straggler and reinstated by its next pong.
//   - The flat star, the default, has no Plan at all: every active
//     worker is a direct child of the server and nobody aggregates. It
//     runs through the same collect/apply as a tree; what it must keep
//     bitwise is its wire frames (bare feedback frames, no plan fields
//     filled in) and its arithmetic and RNG draw order — everything
//     the serial-reference equivalence test observes.
//
// The engine's plan routing consumes only Parent, Children and Subtree.
// The swap counterpart (which worker ships its discriminator where) is
// the separate SwapSchedule interface in internal/core, so aggregation
// trees and gossip/shuffle swap patterns compose freely.
package cluster

import (
	"math/rand"
	"sort"

	"mdgan/internal/simnet"
)

// Membership tracks which workers of a training cluster are alive and
// which participate in the current round. It is not safe for concurrent
// use: exactly one protocol driver (the server/engine goroutine) owns
// it.
type Membership struct {
	// net, when non-nil, is told about fail-stop deaths (net.Crash
	// closes the victim's inbox so its goroutine observes the crash).
	net simnet.Net
	// rng drives client sampling; it may be shared with the protocol
	// driver (the engines share their server RNG so the draw order is
	// part of the pinned deterministic stream).
	rng *rand.Rand
	// order lists every worker ever added, in join order. Crashed
	// workers stay in order (schedule indices must remain stable) but
	// drop out of live.
	order []string
	live  map[string]bool
	// crashAt schedules fail-stop crashes: iteration (or round) number
	// → indices into order of the workers to kill at its start.
	crashAt map[int][]int
	// activePerRound, when in (0, live count), bounds how many workers
	// a Sample activates.
	activePerRound int
	// suspect marks live workers currently excluded from dispatch
	// (transient-fault state; see the package doc's lifecycle diagram).
	suspect map[string]bool
	// misses counts consecutive Suspect ticks since the last
	// reinstatement; reaching suspectAfter escalates to demotion.
	misses map[string]int
	// suspectAfter is the escalation threshold N (0 = DefaultSuspectAfter,
	// negative = never escalate).
	suspectAfter int
	// workerFaults accumulates per-worker fault counters (faults.go).
	workerFaults map[string]*WorkerFaults
}

// DefaultSuspectAfter is the default number of consecutive misses after
// which a suspect is demoted permanently.
const DefaultSuspectAfter = 3

// New builds a membership over an initially empty worker set. net may
// be nil (no transport to signal crashes to), crashAt may be nil (no
// scheduled crashes) and activePerRound 0 (every live worker active).
func New(net simnet.Net, rng *rand.Rand, crashAt map[int][]int, activePerRound int) *Membership {
	return &Membership{
		net:            net,
		rng:            rng,
		live:           make(map[string]bool),
		crashAt:        crashAt,
		activePerRound: activePerRound,
		suspect:        make(map[string]bool),
		misses:         make(map[string]int),
	}
}

// SetSuspectThreshold configures the escalation threshold N: a suspect
// accumulating n consecutive misses is demoted permanently. n == 0
// selects DefaultSuspectAfter; n < 0 disables escalation entirely
// (suspects are only demoted by an explicit Fail or crash schedule).
func (m *Membership) SetSuspectThreshold(n int) { m.suspectAfter = n }

// SuspectThreshold returns the resolved escalation threshold (the
// engines also use it as the corrupt-frame strike budget).
func (m *Membership) SuspectThreshold() int { return m.suspectThreshold() }

// suspectThreshold resolves the configured escalation threshold.
func (m *Membership) suspectThreshold() int {
	switch {
	case m.suspectAfter > 0:
		return m.suspectAfter
	case m.suspectAfter < 0:
		return int(^uint(0) >> 1) // never
	default:
		return DefaultSuspectAfter
	}
}

// Add registers a worker as alive and appends it to the join order —
// used both for the initial cluster and for dynamic joins.
func (m *Membership) Add(name string) {
	m.order = append(m.order, name)
	m.live[name] = true
}

// Alive reports whether the named worker is currently live.
func (m *Membership) Alive(name string) bool { return m.live[name] }

// NumLive returns the number of live workers.
func (m *Membership) NumLive() int {
	n := 0
	for _, name := range m.order {
		if m.live[name] {
			n++
		}
	}
	return n
}

// Len returns the number of workers ever added (live or not).
func (m *Membership) Len() int { return len(m.order) }

// Name returns the join-order name at index i ("" when out of range).
func (m *Membership) Name(i int) string {
	if i < 0 || i >= len(m.order) {
		return ""
	}
	return m.order[i]
}

// Live returns the live worker names in join order. The slice is
// freshly allocated; callers may retain or reorder it.
func (m *Membership) Live() []string {
	out := make([]string, 0, len(m.order))
	for _, name := range m.order {
		if m.live[name] {
			out = append(out, name)
		}
	}
	return out
}

// ApplyCrashes executes the fail-stop schedule for iteration it:
// workers whose join-order index is listed die before the round starts,
// taking their data shard with them (Fig. 5). Out-of-range and already-
// dead indices are ignored. Scheduled crashes are not counted as
// demotions in the fault stats — they are injected, not detected.
func (m *Membership) ApplyCrashes(it int) {
	for _, idx := range m.crashAt[it] {
		if idx < 0 || idx >= len(m.order) {
			continue
		}
		m.fail(m.order[idx], false)
	}
}

// Fail demotes a worker fail-stop style: it leaves the live set and, on
// a real transport, its inbox is closed so the worker goroutine (local
// transports) observes the death. The engines call this for stragglers
// whose escalation budget is exhausted and for unrecoverable transport
// deaths.
func (m *Membership) Fail(name string) { m.fail(name, true) }

func (m *Membership) fail(name string, counted bool) {
	if !m.live[name] {
		return
	}
	m.live[name] = false
	delete(m.suspect, name)
	delete(m.misses, name)
	if counted {
		m.faults(name).Demotions++
	}
	if m.net != nil {
		m.net.Crash(name)
	}
}

// Retire removes a worker gracefully at the end of its scheduled
// lifetime (lifetimes.go): it leaves the live set like a fail-stop
// death, but its transport inbox is NOT closed — the engine stops it
// with a protocol message so the goroutine drains its queue and exits
// through its own main loop, letting any in-flight swap traffic
// resolve first. A retirement is a planned departure, so it is counted
// as a Retirement, never a Demotion, and does not trip FaultStats.Any.
// Retiring a dead or unknown worker is a no-op (reported by the return
// value).
func (m *Membership) Retire(name string) bool {
	if !m.live[name] {
		return false
	}
	m.live[name] = false
	delete(m.suspect, name)
	delete(m.misses, name)
	m.faults(name).Retirements++
	return true
}

// Suspect records a miss against a live worker: on the first miss the
// worker enters the suspect state (skipped for dispatch, state
// retained); each further miss ticks its escalation counter, and
// reaching the threshold demotes it permanently. It reports whether
// this call demoted the worker. Calls against dead workers are no-ops.
func (m *Membership) Suspect(name string) (demoted bool) {
	if !m.live[name] {
		return false
	}
	m.suspect[name] = true
	m.misses[name]++
	m.faults(name).Suspects++
	if m.misses[name] >= m.suspectThreshold() {
		m.fail(name, true)
		return true
	}
	return false
}

// Reinstate re-admits a suspect whose feedback or transport reappeared:
// it returns to the active set with its miss counter cleared (misses
// are consecutive). Returns false when the worker is not currently a
// live suspect (already demoted, never suspected, or unknown).
func (m *Membership) Reinstate(name string) bool {
	if !m.live[name] || !m.suspect[name] {
		return false
	}
	delete(m.suspect, name)
	delete(m.misses, name)
	m.faults(name).Rejoins++
	return true
}

// Suspects returns the current suspects in join order.
func (m *Membership) Suspects() []string {
	out := make([]string, 0, len(m.suspect))
	for _, name := range m.order {
		if m.live[name] && m.suspect[name] {
			out = append(out, name)
		}
	}
	return out
}

// NumSuspect returns the number of live suspects.
func (m *Membership) NumSuspect() int {
	n := 0
	for name := range m.suspect {
		if m.live[name] {
			n++
		}
	}
	return n
}

// Active returns the dispatchable workers — live minus suspects — in
// join order. The slice is freshly allocated; callers may retain or
// reorder it.
func (m *Membership) Active() []string {
	out := make([]string, 0, len(m.order))
	for _, name := range m.order {
		if m.live[name] && !m.suspect[name] {
			out = append(out, name)
		}
	}
	return out
}

// numActive returns the number of dispatchable (live, non-suspect)
// workers.
func (m *Membership) numActive() int {
	n := 0
	for _, name := range m.order {
		if m.live[name] && !m.suspect[name] {
			n++
		}
	}
	return n
}

// Sample returns this round's active workers: all dispatchable workers
// in join order (suspects are skipped — their state is retained but
// they receive no batches until reinstated), or — when ActivePerRound
// is set below that count — a uniform random subset of that size in
// lexicographic order (the §VII.4 client-sampling extension: fewer
// active discriminators than workers, the whole dataset still covered
// over time). The RNG is consumed only when sampling actually
// truncates, so runs without the knob draw an identical stream to runs
// of a sampling-free build.
func (m *Membership) Sample() []string {
	alive := m.Active()
	if m.activePerRound > 0 && m.activePerRound < len(alive) {
		m.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
		alive = alive[:m.activePerRound]
		sort.Strings(alive) // deterministic merge order
	}
	return alive
}

// StopAll sends a best-effort stop message (type stopType, C→W) from
// the named server node to every live worker — the shared half of the
// protocols' shutdown paths, which must run on every exit (including
// error returns) so worker goroutines never outlive a Train call.
// Sends to workers that died between the liveness check and the send
// fail harmlessly: a crashed worker's goroutine has already exited via
// its closed inbox. Callers then join their own worker goroutines
// (the handles are protocol-specific).
func (m *Membership) StopAll(from, stopType string) {
	if m.net == nil {
		return
	}
	for _, name := range m.order {
		if m.live[name] {
			_ = m.net.Send(simnet.Message{From: from, To: name, Type: stopType, Kind: simnet.CtoW})
		}
	}
}

// ActiveBound returns an upper bound on the size of the next Sample —
// min(ActivePerRound, dispatchable count) — without consuming the RNG.
// The pipelined engine uses it to clamp k when generating a round ahead
// of the membership decisions for that round.
func (m *Membership) ActiveBound() int {
	n := m.numActive()
	if m.activePerRound > 0 && m.activePerRound < n {
		return m.activePerRound
	}
	return n
}
