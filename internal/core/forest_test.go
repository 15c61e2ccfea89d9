package core

import (
	"strings"
	"testing"

	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/tree"
)

// handForest builds a three-tree forest over a 3×3 grid whose radius puts
// every node in range of every other: nodes 1–2 aggregate on tree 0 (2
// under 1), 3–4 on tree 1 (4 under 3), 5–6 on tree 2, and 7–9 are leaves.
// Every node heard the base station and every aggregator but itself.
func handForest(n int) tree.Forest {
	f := tree.Forest{
		Tree:   []int{tree.Root, 0, 0, 1, 1, 2, 2, tree.NoTree, tree.NoTree, tree.NoTree},
		Parent: []topology.NodeID{topology.None, 0, 1, 0, 3, 0, 0, topology.None, topology.None, topology.None},
		Hop:    []uint16{0, 1, 2, 1, 2, 1, 1, 0, 0, 0},
		Heard:  make([][][]topology.NodeID, 3),
	}
	for t := range f.Heard {
		f.Heard[t] = make([][]topology.NodeID, n)
		for i := 0; i < n; i++ {
			for j, tj := range f.Tree {
				if (tj == t || tj == tree.Root) && j != i {
					f.Heard[t][i] = append(f.Heard[t][i], topology.NodeID(j))
				}
			}
		}
	}
	return f
}

// clone deep-copies the per-node slices a case mutates.
func clone(f tree.Forest) tree.Forest {
	g := tree.Forest{
		Tree:   append([]int(nil), f.Tree...),
		Parent: append([]topology.NodeID(nil), f.Parent...),
		Hop:    append([]uint16(nil), f.Hop...),
	}
	for _, h := range f.Heard {
		g.Heard = append(g.Heard, append([][]topology.NodeID(nil), h...))
	}
	return g
}

// TestDeployChecksForest feeds Deploy one malformed forest per rejection
// rule, then runs a loss-free round on the well-formed hand-built one:
// every tree total must equal the sum of the sensors' contributions.
func TestDeployChecksForest(t *testing.T) {
	net, err := topology.Grid(3, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	n := net.N()
	cfg := DefaultConfig()
	cfg.MAC.Scheme = mac.SchemeTDMA
	valid := handForest(n)
	cases := []struct {
		name   string
		mutate func(f *tree.Forest)
	}{
		{"one tree", func(f *tree.Forest) { f.Heard = f.Heard[:1] }},
		{"nine trees", func(f *tree.Forest) {
			for len(f.Heard) < 9 {
				f.Heard = append(f.Heard, make([][]topology.NodeID, n))
			}
		}},
		{"short tree slice", func(f *tree.Forest) { f.Tree = f.Tree[:n-1] }},
		{"short parent slice", func(f *tree.Forest) { f.Parent = f.Parent[:n-1] }},
		{"short hop slice", func(f *tree.Forest) { f.Hop = f.Hop[:n-1] }},
		{"short heard lists", func(f *tree.Forest) { f.Heard[2] = f.Heard[2][:n-1] }},
		{"tree index out of range", func(f *tree.Forest) { f.Tree[2] = 3 }},
		{"aggregator without parent", func(f *tree.Forest) { f.Parent[2] = topology.None }},
		{"parent outside deployment", func(f *tree.Forest) { f.Parent[2] = topology.NodeID(n) }},
		{"parent on another tree", func(f *tree.Forest) { f.Parent[2] = 3 }},
		{"leaf with parent", func(f *tree.Forest) { f.Parent[7] = 1 }},
		{"root with parent", func(f *tree.Forest) { f.Parent[0] = 1 }},
	}
	for _, c := range cases {
		f := clone(valid)
		c.mutate(&f)
		var in Instance
		err := in.deploy(net, cfg, 1, 3, &f)
		if err == nil {
			t.Errorf("%s: malformed forest accepted", c.name)
		} else if !strings.HasPrefix(err.Error(), "core: phase I produced overlapping trees") {
			t.Errorf("%s: error %q lacks the forest-check prefix", c.name, err)
		}
	}

	var in Instance
	f := clone(valid)
	if err := in.deploy(net, cfg, 1, 2, &f); err == nil {
		t.Error("three-tree forest accepted for a two-tree deployment")
	}

	// The engine runs a well-formed forest under every option: plain,
	// with a dead tree-0 aggregator repaired around, and coalesced. The
	// grid is one hop across, so every node owns a TDMA slot of its own
	// and no frame, ACKs included, can collide: every tree total must
	// equal the live sensors' contributions exactly.
	for _, v := range []struct {
		name   string
		set    func(c *Config)
		victim topology.NodeID
	}{
		{"plain", func(*Config) {}, topology.None},
		{"repair", func(c *Config) { c.Repair = true }, 1},
		{"coalesce", func(c *Config) { c.Coalesce = true }, topology.None},
	} {
		c := cfg
		v.set(&c)
		var in Instance
		f := clone(valid)
		if err := in.deploy(net, c, 1, 3, &f); err != nil {
			t.Fatalf("%s: valid forest rejected: %v", v.name, err)
		}
		if v.victim != topology.None {
			in.Kill(v.victim)
		}
		contribs := make([]int64, n)
		var want int64
		live := 0
		for i := 1; i < n; i++ {
			contribs[i] = int64(10 * i)
			if topology.NodeID(i) != v.victim {
				want += contribs[i]
				live++
			}
		}
		out, err := in.RunRound(contribs)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		totals := out.Totals[:out.M]
		if out.Participants != live {
			t.Fatalf("%s: %d participants, want %d", v.name, out.Participants, live)
		}
		if len(totals) != 3 {
			t.Fatalf("%s: %d totals, want 3", v.name, len(totals))
		}
		for tr, got := range totals {
			if got != want {
				t.Errorf("%s: tree %d total %d, want %d (totals %v)", v.name, tr, got, want, totals)
			}
		}
		if c.Repair && out.Repaired == 0 {
			t.Errorf("%s: node 2 lost its parent but nothing was repaired", v.name)
		}
		if c.Coalesce && in.Medium.Stats().FramesCoalesced == 0 {
			t.Errorf("%s: no coalesced frame went on the air", v.name)
		}
	}
}

// TestSliceNoncesDistinctAcrossTrees: the base station roots every tree, so
// a node that heard only the base station on every tree sends it one slice
// per tree at the same slice index. Those slices share a link key, round
// and direction, so their nonces must still differ, or one keystream would
// cover two shares.
func TestSliceNoncesDistinctAcrossTrees(t *testing.T) {
	net, err := topology.Grid(3, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	n := net.N()
	f := handForest(n)
	const last = topology.NodeID(9) // the final node to slice, whose requests stay staged
	for tr := range f.Heard {
		f.Heard[tr][last] = []topology.NodeID{0}
	}
	cfg := DefaultConfig()
	cfg.Slices = 1
	cfg.MAC.Scheme = mac.SchemeTDMA
	var in Instance
	if err := in.deploy(net, cfg, 1, 3, &f); err != nil {
		t.Fatal(err)
	}
	contribs := make([]int64, n)
	var want int64
	for i := 1; i < n; i++ {
		contribs[i] = int64(i)
		want += contribs[i]
	}
	if out, err := in.RunRound(contribs); err != nil {
		t.Fatal(err)
	} else {
		for tr, got := range out.Totals[:out.M] {
			if got != want {
				t.Errorf("tree %d total %d, want %d", tr, got, want)
			}
		}
	}
	type ident struct {
		src, dst topology.NodeID
		nonce    uint32
	}
	seen := map[ident]bool{}
	for _, r := range in.sealReqs {
		if r.Src != last || r.Dst != 0 {
			t.Fatalf("staged request %d→%d, want %d→0", r.Src, r.Dst, last)
		}
		id := ident{r.Src, r.Dst, r.Nonce}
		if seen[id] {
			t.Errorf("nonce %#x reused on link %d→%d", r.Nonce, r.Src, r.Dst)
		}
		seen[id] = true
	}
	if len(in.sealReqs) != len(f.Heard) {
		t.Fatalf("%d slices to the base station, want one per tree (%d)", len(in.sealReqs), len(f.Heard))
	}
}

// TestCoverageAndParticipationOnRealTrees checks the forest's Figure 8
// fractions on a dense deployment, and participation against the engine's
// own participant list.
func TestCoverageAndParticipationOnRealTrees(t *testing.T) {
	net, err := topology.Random(topology.PaperConfig(500), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(net, DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cov := in.Trees.CoverageFraction()
	part := in.Trees.ParticipationFraction(2)
	if cov < 0.9 || cov > 1 {
		t.Fatalf("coverage %v at N=500", cov)
	}
	if part > cov {
		t.Fatalf("participation %v exceeds coverage %v", part, cov)
	}
	if part < 0.7 {
		t.Fatalf("participation %v too low at N=500", part)
	}
	if want := float64(len(in.Participants())) / float64(net.N()-1); part != want {
		t.Fatalf("ParticipationFraction %v != engine %v", part, want)
	}
}
