package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func topoNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("worker%d", i)
	}
	return out
}

// checkPlan verifies the structural invariants every topology must
// satisfy: each active worker has exactly one parent, every parent
// chain terminates at the server, children lists partition the actives,
// and the plan mentions nobody else.
func checkPlan(t *testing.T, p *Plan, server string, active []string) {
	t.Helper()
	seen := map[string]bool{}
	for _, c := range p.Children {
		for _, name := range c {
			if seen[name] {
				t.Fatalf("%s appears under two parents", name)
			}
			seen[name] = true
		}
	}
	for _, name := range active {
		if !seen[name] {
			t.Fatalf("%s missing from every children list", name)
		}
		// Walk to the server; bound the walk to catch cycles.
		cur := name
		for hops := 0; cur != server; hops++ {
			if hops > len(active) {
				t.Fatalf("parent chain from %s does not terminate", name)
			}
			next, ok := p.Parent[cur]
			if !ok || next == "" {
				t.Fatalf("%s has no parent", cur)
			}
			cur = next
		}
	}
	if len(seen) != len(active) {
		t.Fatalf("plan covers %d nodes, want %d", len(seen), len(active))
	}
}

// TestFlatPlan: a depth-1 tree lays the workers out as the star does,
// every worker a direct child of the server and nobody an aggregator.
func TestFlatPlan(t *testing.T) {
	active := topoNames(7)
	p := Tree{Depth: 1}.Plan("server", active)
	checkPlan(t, p, "server", active)
	if got := p.Children["server"]; !reflect.DeepEqual(got, active) {
		t.Fatalf("flat children = %v", got)
	}
	for _, name := range active {
		if p.Parent[name] != "server" {
			t.Fatalf("flat parent of %s = %q", name, p.Parent[name])
		}
		if len(p.Children[name]) > 0 {
			t.Fatalf("flat plan made %s an aggregator", name)
		}
	}
}

func TestTreePlanStructure(t *testing.T) {
	for _, tc := range []struct{ n, depth, fanin int }{
		{9, 2, 0}, {9, 2, 3}, {50, 2, 0}, {500, 2, 0}, {27, 3, 3},
		{1, 2, 0}, {2, 2, 0}, {5, 2, 2}, {100, 3, 0},
	} {
		name := fmt.Sprintf("n=%d_d=%d_f=%d", tc.n, tc.depth, tc.fanin)
		t.Run(name, func(t *testing.T) {
			active := topoNames(tc.n)
			topo := Tree{Depth: tc.depth, Fanin: tc.fanin}
			p := topo.Plan("server", active)
			checkPlan(t, p, "server", active)
			if tc.fanin >= 2 {
				for parent, kids := range p.Children {
					if len(kids) > tc.fanin {
						t.Fatalf("%s has %d children, fan-in %d", parent, len(kids), tc.fanin)
					}
				}
			}
			// Determinism: same inputs, same plan.
			again := topo.Plan("server", active)
			if !reflect.DeepEqual(p, again) {
				t.Fatal("plan is not deterministic")
			}
		})
	}
}

// TestTreePlanReducesServerFanin is the point of the tree: the server's
// direct-child count must be far below the cluster size.
func TestTreePlanReducesServerFanin(t *testing.T) {
	active := topoNames(500)
	p := Tree{Depth: 2}.Plan("server", active)
	if got := len(p.Children["server"]); got >= 100 {
		t.Fatalf("server fan-in %d for K=500 depth-2, want O(sqrt K)", got)
	}
}

// TestTreePlanReparentsAfterLoss: removing an aggregator from the
// active set must yield a valid plan over the survivors — reparenting
// is nothing but a replan.
func TestTreePlanReparentsAfterLoss(t *testing.T) {
	active := topoNames(9)
	topo := Tree{Depth: 2}
	p := topo.Plan("server", active)
	var agg string
	for _, name := range active {
		if len(p.Children[name]) > 0 {
			agg = name
			break
		}
	}
	if agg == "" {
		t.Fatal("no aggregator in a 9-worker depth-2 tree")
	}
	survivors := make([]string, 0, len(active)-1)
	for _, name := range active {
		if name != agg {
			survivors = append(survivors, name)
		}
	}
	checkPlan(t, topo.Plan("server", survivors), "server", survivors)
}

func TestSubtree(t *testing.T) {
	p := Tree{Depth: 2, Fanin: 3}.Plan("server", topoNames(9))
	// With fan-in 3 over 9 workers, worker0 heads the first group of 3.
	want := []string{"worker0", "worker1", "worker2"}
	if got := p.Subtree("worker0"); !reflect.DeepEqual(got, want) {
		t.Fatalf("Subtree(worker0) = %v, want %v", got, want)
	}
	if got := p.Subtree("worker1"); !reflect.DeepEqual(got, []string{"worker1"}) {
		t.Fatalf("Subtree(worker1) = %v", got)
	}
}

func TestParseTopology(t *testing.T) {
	for _, spec := range []string{"", "flat"} {
		topo, err := ParseTopology(spec, 0)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", spec, err)
		}
		if topo != nil {
			t.Fatalf("ParseTopology(%q) = %s, want the star (nil)", spec, topo.Name())
		}
		if _, err := ParseTopology(spec, 3); err == nil {
			t.Fatalf("ParseTopology(%q) accepted a fan-in without a tree", spec)
		}
	}
	topo, err := ParseTopology("tree:2", 4)
	if err != nil {
		t.Fatal(err)
	}
	if topo == nil || topo.Depth != 2 || topo.Fanin != 4 {
		t.Fatalf("ParseTopology(tree:2) = %#v", topo)
	}
	for _, bad := range []string{"tree", "tree:", "tree:1", "tree:x", "mesh"} {
		if _, err := ParseTopology(bad, 0); err == nil {
			t.Fatalf("ParseTopology(%q) accepted", bad)
		}
	}
	if _, err := ParseTopology("tree:2", 1); err == nil {
		t.Fatal("fan-in 1 accepted")
	}
}
