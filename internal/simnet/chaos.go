package simnet

import (
	"math/rand"
	"sync"
	"time"
)

// ChaosNet is a fault-injecting Net wrapper: a seeded, deterministic
// adversary between the protocol and any real transport (ChannelNet or
// TCPNet). Per message it can drop, delay, duplicate or corrupt the
// payload, and whole nodes can be partitioned away and healed again —
// the transient faults the round engines' deadline/quorum/suspect
// machinery exists to survive. Tests, `mdgan-train -chaos` and
// verify.sh's chaos gate all drive the trainers through it.
//
// Determinism: all fault decisions come from one seeded *rand.Rand
// consumed under the net's lock, so the stream of draws is fixed by the
// seed, but which message each draw lands on is not. Concurrent senders
// (the server's fan-out, workers' swaps and feedbacks) reach the lock in
// whatever order the scheduler runs them, and a delayed message lands
// on whichever side of a round deadline the clock puts it. A chaotic
// run is therefore not reproducible: `mdgan-train -dataset ring
// -samples 400 -workers 4 -iters 40 -chaos 0.05` writes a different
// checkpoint on each of five runs. The strict engine's bitwise tests
// run without chaos; ROADMAP item 6(b) keys each decision by the
// message instead of by its turn at the lock.
//
// Dropped and partitioned messages are lost SILENTLY: Send returns nil,
// exactly like a real datagram loss or a peer behind a partition whose
// kernel still ACKs. The sender finds out the way real systems do — by
// a missing response and a deadline. Control-plane shutdown is exempt:
// message types in ProtectTypes (by default just "stop") are never
// dropped, corrupted or partitioned away, only delayed, so a chaotic
// run can always be reaped without leaking worker goroutines.
type ChaosNet struct {
	inner Net

	mu       sync.Mutex
	rng      *rand.Rand
	cfg      ChaosConfig
	isolated map[string]bool // nodes currently partitioned from the rest

	closed chan struct{}
	wg     sync.WaitGroup // in-flight delayed deliveries

	stats ChaosStats
}

// ChaosConfig configures the per-message fault probabilities. All
// probabilities are in [0, 1] and evaluated independently per message
// in a fixed order (drop, corrupt, delay, duplicate).
type ChaosConfig struct {
	// Seed seeds the fault stream.
	Seed int64
	// Drop is the probability a message is silently lost.
	Drop float64
	// Corrupt is the probability a message is delivered with flipped
	// bytes (exercising the wire decoders' hardening in anger).
	Corrupt float64
	// CorruptKinds restricts corruption to the given link kinds; nil
	// corrupts every kind.
	CorruptKinds map[Kind]bool
	// Delay is the probability a message is held back before delivery.
	Delay float64
	// MaxDelay bounds the uniform random hold-back (default 5ms when
	// Delay > 0 and MaxDelay == 0). Delayed messages are delivered
	// asynchronously, so they reorder against later traffic — the
	// round-tag machinery's reason to exist.
	MaxDelay time.Duration
	// Duplicate is the probability a message is delivered twice (the
	// at-least-once failure mode of retrying transports).
	Duplicate float64
	// ProtectTypes lists message types exempt from drop/corrupt/
	// partition (delay still applies). Nil selects {"stop": true};
	// use an explicitly empty, non-nil map to protect nothing.
	ProtectTypes map[string]bool
}

// ChaosStats counts the faults actually injected.
type ChaosStats struct {
	Dropped, Corrupted, Delayed, Duplicated int64
	// Partitioned counts messages lost to an active partition
	// (accounted separately from probabilistic drops).
	Partitioned int64
}

// WrapChaos wraps inner in a ChaosNet with the given configuration.
func WrapChaos(inner Net, cfg ChaosConfig) *ChaosNet {
	if cfg.ProtectTypes == nil {
		cfg.ProtectTypes = map[string]bool{"stop": true}
	}
	if cfg.Delay > 0 && cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Millisecond
	}
	return &ChaosNet{
		inner:    inner,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		cfg:      cfg,
		isolated: make(map[string]bool),
		closed:   make(chan struct{}),
	}
}

// Partition isolates the named nodes from every node not named: sends
// crossing the boundary (either direction) are silently lost until the
// nodes are healed. Messages between two isolated nodes still flow.
func (c *ChaosNet) Partition(nodes ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range nodes {
		c.isolated[n] = true
	}
}

// Heal removes the named nodes from the partition; with no arguments it
// heals every partitioned node.
func (c *ChaosNet) Heal(nodes ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(nodes) == 0 {
		clear(c.isolated)
		return
	}
	for _, n := range nodes {
		delete(c.isolated, n)
	}
}

// Stats snapshots the injected-fault counters.
func (c *ChaosNet) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Retries exposes the inner transport's retry counter (0 when the
// transport has none) so the fault accounting composes through the
// wrapper.
func (c *ChaosNet) Retries() int64 {
	if r, ok := c.inner.(interface{ Retries() int64 }); ok {
		return r.Retries()
	}
	return 0
}

// Register implements Net.
func (c *ChaosNet) Register(node string) error { return c.inner.Register(node) }

// Inbox implements Net.
func (c *ChaosNet) Inbox(node string) <-chan Message { return c.inner.Inbox(node) }

// Crash implements Net.
func (c *ChaosNet) Crash(node string) { c.inner.Crash(node) }

// Snapshot implements Net.
func (c *ChaosNet) Snapshot() Traffic { return c.inner.Snapshot() }

// Close implements Net: it aborts pending delayed deliveries, waits for
// their goroutines, then closes the inner transport.
func (c *ChaosNet) Close() error {
	c.mu.Lock()
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	c.mu.Unlock()
	c.wg.Wait()
	return c.inner.Close()
}

// Send implements Net, applying the configured faults. The error
// surface is the inner transport's: a dropped or partitioned message
// reports success (the loss is silent, as on a real network).
func (c *ChaosNet) Send(msg Message) error {
	c.mu.Lock()
	protected, corrupted := c.cfg.ProtectTypes[msg.Type], false
	if !protected {
		if c.isolated[msg.From] != c.isolated[msg.To] {
			c.stats.Partitioned++
			c.mu.Unlock()
			return nil
		}
		if c.cfg.Drop > 0 && c.rng.Float64() < c.cfg.Drop {
			c.stats.Dropped++
			c.mu.Unlock()
			return nil
		}
		if c.cfg.Corrupt > 0 &&
			(c.cfg.CorruptKinds == nil || c.cfg.CorruptKinds[msg.Kind]) &&
			c.rng.Float64() < c.cfg.Corrupt && msg.Len() > 0 {
			msg, corrupted = msg.private(), true
			for i, n := 0, 1+c.rng.Intn(4); i < n; i++ {
				msg.Payload[c.rng.Intn(len(msg.Payload))] ^= byte(1 + c.rng.Intn(255))
			}
			c.stats.Corrupted++
		}
	}
	var delay time.Duration
	if c.cfg.Delay > 0 && c.rng.Float64() < c.cfg.Delay {
		delay = time.Duration(c.rng.Int63n(int64(c.cfg.MaxDelay))) + 1
		c.stats.Delayed++
	}
	duplicate := !protected && c.cfg.Duplicate > 0 && c.rng.Float64() < c.cfg.Duplicate
	if duplicate {
		c.stats.Duplicated++
	}
	c.mu.Unlock()

	// A message held past this call or delivered twice must not share
	// its sender's buffers, and neither may any message with frames: a
	// delay or a duplicate anywhere reorders or repeats the answers a
	// sender reads as proof that its frames were decoded (the frame
	// contract on Message). Each such delivery gets a private flattened
	// copy.
	if !corrupted && (delay > 0 || duplicate || len(msg.Frames) > 0) {
		msg = msg.private()
	}
	if delay > 0 {
		c.deliverLater(msg, delay, duplicate)
		return nil
	}
	return c.deliver(msg, duplicate)
}

// deliver hands msg to the inner transport, and a second private copy
// after it when duplicate is set. The copy is taken first: once msg is
// delivered its receiver owns the payload and may recycle it.
func (c *ChaosNet) deliver(msg Message, duplicate bool) error {
	var dup Message
	if duplicate {
		dup = msg.private()
	}
	err := c.inner.Send(msg)
	if duplicate && err == nil {
		err = c.inner.Send(dup)
	}
	return err
}

// deliverLater hands msg to the inner transport after the delay, or
// drops it if the net closes first. Delivery errors are discarded: by
// the time a held-back message lands its destination may legitimately
// be gone, exactly like a late datagram.
func (c *ChaosNet) deliverLater(msg Message, delay time.Duration, duplicate bool) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
			_ = c.deliver(msg, duplicate)
		case <-c.closed:
		}
	}()
}
