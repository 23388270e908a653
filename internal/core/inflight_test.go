package core

import (
	"sync"
	"testing"
	"time"

	"mdgan/internal/cluster"
	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/parallel"
	"mdgan/internal/simnet"
)

// inflightNet wraps a Net and records the most Sends ever in flight at
// once on one (from, to) pair.
type inflightNet struct {
	simnet.Net
	mu    sync.Mutex
	now   map[string]int
	max   int
	worst string
}

func (n *inflightNet) Send(msg simnet.Message) error {
	key := msg.From + "→" + msg.To
	n.mu.Lock()
	n.now[key]++
	if n.now[key] > n.max {
		n.max, n.worst = n.now[key], key
	}
	n.mu.Unlock()
	// Hold the send open for a moment, so that a second send on the
	// same pair overlaps it even on a channel hand-off.
	time.Sleep(200 * time.Microsecond)
	err := n.Net.Send(msg)
	n.mu.Lock()
	n.now[key]--
	n.mu.Unlock()
	return err
}

// TestAtMostOneSendInFlightPerPair pins the premise simnet.TCPNet's
// framing rests on: no engine ever has two frames in flight on one
// (from, to) pair, so a connection carrying one frame at a time never
// makes a send wait behind another.
func TestAtMostOneSendInFlightPerPair(t *testing.T) {
	// Fan BroadcastEach out as wide as it goes, one helper per message,
	// so that any two sends the engine lets overlap do overlap.
	parallel.SetMaxProcs(32)
	defer parallel.SetMaxProcs(0)
	cases := []struct {
		name    string
		workers int
		edit    func(*Config)
	}{
		{"strict star", 4, func(c *Config) {}},
		{"strict tree with swaps", 9, func(c *Config) {
			c.Topology = &cluster.Tree{Depth: 2}
			c.SwapEvery = 1
		}},
		{"pipelined with a joiner", 3, func(c *Config) {
			c.Pipeline = true
			c.JoinAt = map[int][]*dataset.Dataset{3: {dataset.GaussianRing(64, 8, 2.0, 0.05, 562)}}
		}},
		{"async", 3, func(c *Config) { c.Async = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner := simnet.NewChannelNet(0)
			defer inner.Close()
			net := &inflightNet{Net: inner, now: map[string]int{}}
			cfg := baseConfig()
			cfg.Iters = 6
			cfg.Net = net
			tc.edit(&cfg)
			if _, err := Train(ringShards(tc.workers, 64, 561), gan.RingMLP(), cfg, nil); err != nil {
				t.Fatal(err)
			}
			if net.max != 1 {
				t.Fatalf("%d concurrent sends on %s", net.max, net.worst)
			}
		})
	}
}
