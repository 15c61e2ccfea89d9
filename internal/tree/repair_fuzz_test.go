package tree_test

import (
	"slices"
	"testing"

	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/tree"
)

// fuzzForests builds real Phase I forests through core on a small dense
// deployment: m = 2 with an extra base station, and m = 3.
func fuzzForests(f *testing.F) []*tree.Forest {
	net, err := topology.Random(topology.Config{Nodes: 80, FieldSide: 150, Range: 50}, rng.New(5))
	if err != nil {
		f.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ExtraRoots = []topology.NodeID{40}
	two, err := core.New(net, cfg, 6)
	if err != nil {
		f.Fatal(err)
	}
	three := &core.Instance{}
	if err := three.Deploy(net, core.DefaultConfig(), 7, 3); err != nil {
		f.Fatal(err)
	}
	return []*tree.Forest{two.Trees, three.Trees}
}

// repairOnce runs RepairDead on a copy of base's parents.
func repairOnce(t *testing.T, base *tree.Forest, down []bool) (*tree.Forest, tree.RepairOutcome) {
	f := *base
	f.Parent = slices.Clone(base.Parent)
	out, err := f.RepairDead(func(id topology.NodeID) bool { return down[id] })
	if err != nil {
		t.Fatal(err)
	}
	return &f, out
}

// FuzzRepairDead decodes its input into a forest choice (the first byte)
// and a down-set (the remaining bytes as a bitmap over node IDs), repairs,
// and checks that every live aggregator left in the round hangs off a
// live, strictly shallower parent on its own tree (or a base station), so
// every chain reaches a base station; that every skipped aggregator had no
// such candidate; and that repair is deterministic.
func FuzzRepairDead(f *testing.F) {
	forests := fuzzForests(f)
	r := rng.New(9)
	for seed := 0; seed < 24; seed++ {
		in := []byte{byte(seed)}
		for range 10 {
			// About one node in eight down.
			in = append(in, byte(r.Uint64()&r.Uint64()&r.Uint64()))
		}
		f.Add(in)
	}
	f.Add([]byte{0, 0xff, 0xff, 0xff})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		base := forests[int(data[0])%len(forests)]
		n := len(base.Tree)
		down := make([]bool, n)
		for i := range down {
			if k := i/8 + 1; k < len(data) {
				down[i] = data[k]>>(i%8)&1 == 1
			}
		}
		got, out := repairOnce(t, base, down)
		if err := got.Check(n); err != nil {
			t.Fatalf("repaired forest malformed: %v", err)
		}
		skipped := make([]bool, n)
		for _, id := range out.Skipped {
			if down[id] || got.Tree[id] < 0 || skipped[id] {
				t.Fatalf("skipped %d: down %v, tree %d, listed twice %v", id, down[id], got.Tree[id], skipped[id])
			}
			skipped[id] = true
		}
		inRound := func(id topology.NodeID) bool { return !down[id] && !skipped[id] }
		usable := func(id, c topology.NodeID) bool {
			tc := got.Tree[c]
			return inRound(c) && (tc == got.Tree[id] || tc == tree.Root) && got.Hop[c] < got.Hop[id]
		}
		for i, tr := range got.Tree {
			id := topology.NodeID(i)
			switch {
			case tr < 0 || down[id]:
				if got.Parent[i] != base.Parent[i] {
					t.Fatalf("node %d (tree %d, down %v) re-parented %d → %d", i, tr, down[id], base.Parent[i], got.Parent[i])
				}
			case skipped[id]:
				for _, c := range got.Heard[tr][i] {
					if usable(id, c) {
						t.Fatalf("skipped aggregator %d had usable candidate %d (hop %d < %d)", i, c, got.Hop[c], got.Hop[i])
					}
				}
			default:
				if p := got.Parent[i]; !usable(id, p) {
					t.Fatalf("aggregator %d (tree %d, hop %d) hangs off %d (tree %d, hop %d, down %v, skipped %v)",
						i, tr, got.Hop[i], p, got.Tree[p], got.Hop[p], down[p], skipped[p])
				}
				cur, steps := id, 0
				for got.Tree[cur] != tree.Root {
					if steps++; steps > n {
						t.Fatalf("chain from %d never reaches a base station", i)
					}
					cur = got.Parent[cur]
				}
			}
		}
		again, out2 := repairOnce(t, base, down)
		if !slices.Equal(again.Parent, got.Parent) || out2.Reattached != out.Reattached || !slices.Equal(out2.Skipped, out.Skipped) {
			t.Fatal("repair not deterministic")
		}
	})
}
