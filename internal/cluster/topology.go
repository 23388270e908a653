package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Plan is one round's aggregation layout. Node roles are implicit:
// the server is the root every contribution ultimately reaches, a
// worker with Children is an aggregator, and every other worker is a
// plain leaf.
type Plan struct {
	// Parent maps each active worker to the node its contribution is
	// sent to: the server for root-level workers, an aggregator
	// worker otherwise.
	Parent map[string]string
	// Children maps the server and each aggregator to the workers
	// whose contributions it reduces, in deterministic plan order —
	// the merge order of the aggregation, so tree runs are
	// reproducible given identical arrival completeness.
	Children map[string][]string
}

// Subtree returns name and every descendant below it in plan order.
// The engines use it to account for the contributions that can no
// longer reach the server when an aggregator dies mid-round.
func (p *Plan) Subtree(name string) []string {
	out := []string{name}
	for i := 0; i < len(out); i++ {
		out = append(out, p.Children[out[i]]...)
	}
	return out
}

// Tree plans how the workers' per-round feedback flows back to the
// server. The paper's flat star needs no plan and is spelled as no Tree
// (a nil *Tree); a tree inserts aggregator workers that reduce their
// children's feedback frames before forwarding, bounding the server's
// per-round fan-in by the tree's root degree instead of K. The full
// topology contract — roles, reparenting rules, and how the engine
// consumes a Plan — is documented in the package doc (membership.go).
//
// The active list is split into at most Fanin contiguous groups, the
// first worker of each group becomes an aggregator (child of the level
// above), and the rest of its group recurses one level deeper below
// it. Depth 1 degenerates to the star's layout; Depth 2 gives the
// server Fanin direct children instead of K.
//
// Fanin 0 picks ceil(n^(1/Depth)) per plan — the degree that balances
// the fan-in of every level for the current active count.
type Tree struct {
	Depth int
	Fanin int
}

// Name identifies the tree in messages ("tree:2", ...).
func (t Tree) Name() string { return fmt.Sprintf("tree:%d", t.Depth) }

// Plan builds the aggregation plan for one round over the active
// workers, listed in dispatch order. It is deterministic and consumes
// no RNG: plans are recomputed every round from the live membership
// (which is how a failed aggregator's children get reparented), and
// the engine's pinned RNG streams must not shift when a tree is
// enabled.
func (t Tree) Plan(server string, active []string) *Plan {
	depth := t.Depth
	if depth < 1 {
		depth = 1
	}
	fanin := t.Fanin
	if fanin < 2 {
		fanin = int(math.Ceil(math.Pow(float64(len(active)), 1/float64(depth))))
		if fanin < 2 {
			fanin = 2
		}
	}
	p := &Plan{
		Parent:   make(map[string]string, len(active)),
		Children: make(map[string][]string),
	}
	attach(p, server, active, depth, fanin)
	return p
}

// attach hangs nodes below parent: directly when they fit the fan-in
// (or the level budget is spent), otherwise split into contiguous
// groups headed by an aggregator each. Contiguous splitting keeps the
// plan a pure function of the active order — no RNG, no hashing — so
// membership changes reshape the tree minimally and deterministically.
func attach(p *Plan, parent string, nodes []string, depth, fanin int) {
	if len(nodes) == 0 {
		return
	}
	if depth <= 1 || len(nodes) <= fanin {
		for _, name := range nodes {
			p.Parent[name] = parent
			p.Children[parent] = append(p.Children[parent], name)
		}
		return
	}
	groups := fanin
	base, rem := len(nodes)/groups, len(nodes)%groups
	start := 0
	for g := 0; g < groups && start < len(nodes); g++ {
		size := base
		if g < rem {
			size++
		}
		group := nodes[start : start+size]
		start += size
		head := group[0]
		p.Parent[head] = parent
		p.Children[parent] = append(p.Children[parent], head)
		attach(p, head, group[1:], depth-1, fanin)
	}
}

// ParseTopology resolves a topology spec: "" or "flat" is the star
// (nil), "tree:<depth>" is an aggregation tree (depth ≥ 2) with the
// given fan-in (0 = auto). A fan-in names a tree's degree, so the star
// rejects a non-zero one. It is the single parser behind the facade and
// the CLI flags.
func ParseTopology(spec string, fanin int) (*Tree, error) {
	switch {
	case spec == "" || spec == "flat":
		if fanin != 0 {
			return nil, fmt.Errorf("cluster: fan-in %d given without a tree topology (want tree:<depth>)", fanin)
		}
		return nil, nil
	case strings.HasPrefix(spec, "tree:"):
		d, err := strconv.Atoi(spec[len("tree:"):])
		if err != nil || d < 2 {
			return nil, fmt.Errorf("cluster: bad tree depth in topology %q (want tree:<depth≥2>)", spec)
		}
		if fanin < 0 || fanin == 1 {
			return nil, fmt.Errorf("cluster: bad fan-in %d (want 0=auto or ≥2)", fanin)
		}
		return &Tree{Depth: d, Fanin: fanin}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown topology %q (want flat or tree:<depth>)", spec)
	}
}
