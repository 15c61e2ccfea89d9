package core

import (
	"testing"

	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/tree"
)

// treesConfig is the default configuration with the aggregator budget K
// raised to at least m.
func treesConfig(m int) Config {
	cfg := DefaultConfig()
	cfg.Tree.K = max(cfg.Tree.K, m)
	return cfg
}

// deployM deploys an m-tree instance over net.
func deployM(t *testing.T, net *topology.Network, cfg Config, m int, seed uint64) *Instance {
	t.Helper()
	in := &Instance{}
	if err := in.Deploy(net, cfg, seed, m); err != nil {
		t.Fatal(err)
	}
	return in
}

// deployTrees builds an m-tree instance on a dense deployment (m > 2
// needs density, as the paper warns).
func deployTrees(t *testing.T, nodes, m int, seed uint64) *Instance {
	t.Helper()
	net, err := topology.Random(topology.PaperConfig(nodes), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return deployM(t, net, treesConfig(m), m, seed+77)
}

// count runs one COUNT query on in and returns its round's outcome, which
// carries the majority verdict.
func count(t *testing.T, in *Instance) RoundOutcome {
	t.Helper()
	res, err := in.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	return res.Outcomes[0]
}

func TestTwoTreesMatchCoreBehaviour(t *testing.T) {
	in := deployTrees(t, 400, 2, 1)
	v := count(t, in)
	if !v.Accepted {
		t.Fatalf("clean m=2 round rejected: %+v", v)
	}
	participants := int64(len(in.Participants()))
	if v.Value < participants*9/10 || v.Value > participants {
		t.Fatalf("count %d vs %d participants", v.Value, participants)
	}
}

func TestThreeTreesCleanRound(t *testing.T) {
	in := deployTrees(t, 600, 3, 2)
	v := count(t, in)
	if !v.Accepted {
		t.Fatalf("clean m=3 round rejected: totals %v", v.Totals[:v.M])
	}
	if v.Outliers != 0 {
		t.Fatalf("clean round flagged outliers %v (totals %v)", v.Outliers.Trees(), v.Totals[:v.M])
	}
}

func TestSinglePolluterOutvoted(t *testing.T) {
	in := deployTrees(t, 600, 3, 4)
	// Make one aggregator of tree 0 malicious.
	var attacker topology.NodeID = topology.None
	for i := 1; i < in.Net.N(); i++ {
		if in.Trees.Tree[i] == 0 {
			attacker = topology.NodeID(i)
			break
		}
	}
	if attacker == topology.None {
		t.Skip("no aggregator on tree 0")
	}
	in.Pollute(attacker, 900)
	res, err := in.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	v := res.Outcomes[0]
	// Majority (trees 1 and 2) still agrees: the query is ACCEPTED with
	// the honest value, tree 1's total, and tree 0 is identified as the
	// outlier.
	if !res.Accepted || !v.Accepted {
		t.Fatalf("majority did not carry: totals %v", v.Totals[:v.M])
	}
	if v.Outliers != 1<<0 {
		t.Fatalf("outliers %v, want [0] (totals %v)", v.Outliers.Trees(), v.Totals[:v.M])
	}
	honest := int64(len(in.Participants()))
	if v.Value != v.Totals[1] || res.Value != float64(v.Value) || v.Value < honest*9/10 || v.Value > honest {
		t.Fatalf("query value %v, round value %d, totals %v, %d participants", res.Value, v.Value, v.Totals[:v.M], honest)
	}
}

func TestCollusionDefeatsTwoTreesButNotThree(t *testing.T) {
	// Two colluders applying the same delta on the two trees of an m=2
	// deployment go undetected (the paper's conceded limitation)...
	in2 := deployTrees(t, 600, 2, 5)
	var a0, a1 topology.NodeID = topology.None, topology.None
	for i := 1; i < in2.Net.N(); i++ {
		switch in2.Trees.Tree[i] {
		case 0:
			if a0 == topology.None {
				a0 = topology.NodeID(i)
			}
		case 1:
			if a1 == topology.None {
				a1 = topology.NodeID(i)
			}
		}
	}
	if a0 == topology.None || a1 == topology.None {
		t.Skip("missing aggregators")
	}
	in2.Pollute(a0, 700)
	in2.Pollute(a1, 700)
	v2 := count(t, in2)
	honest2 := int64(len(in2.Participants()))
	if !v2.Accepted {
		t.Logf("m=2 colluders detected by luck (totals %v)", v2.Totals[:v2.M])
	} else if v2.Value < honest2+600 {
		t.Fatalf("m=2 collusion accepted but value %d not shifted (participants %d)", v2.Value, honest2)
	}

	// ...but with m=3 the honest third tree outvotes the same collusion.
	in3 := deployTrees(t, 600, 3, 6)
	var b0, b1 topology.NodeID = topology.None, topology.None
	for i := 1; i < in3.Net.N(); i++ {
		switch in3.Trees.Tree[i] {
		case 0:
			if b0 == topology.None {
				b0 = topology.NodeID(i)
			}
		case 1:
			if b1 == topology.None {
				b1 = topology.NodeID(i)
			}
		}
	}
	if b0 == topology.None || b1 == topology.None {
		t.Skip("missing aggregators")
	}
	in3.Pollute(b0, 700)
	in3.Pollute(b1, 700)
	v3 := count(t, in3)
	honest3 := int64(len(in3.Participants()))
	// With only 1 honest tree out of 3 no strict majority should form
	// around the polluted value... the two polluted trees DO agree with
	// each other (same delta), forming a 2-of-3 majority around the WRONG
	// value. Majority voting with m=3 tolerates f colluders only when
	// m >= 2f+1 — here f=2 needs m=5. What m=3 does guarantee is that
	// the verdict flags a dissenting tree, alerting the base station.
	if v3.Accepted && v3.Outliers == 0 {
		t.Fatalf("m=3 collusion produced a unanimous verdict: totals %v", v3.Totals[:v3.M])
	}
	if v3.Accepted && v3.Value >= honest3+600 {
		// The colluding majority won the vote, but the honest tree is
		// flagged as "outlier" — the alert a cautious base station acts
		// on. Verify the honest total is recoverable from the outlier.
		found := false
		for _, o := range v3.Outliers.Trees() {
			if v3.Totals[o] <= honest3 && v3.Totals[o] >= honest3*9/10 {
				found = true
			}
		}
		if !found {
			t.Fatalf("honest total lost: totals %v outliers %v participants %d", v3.Totals[:v3.M], v3.Outliers.Trees(), honest3)
		}
	}
}

func TestFivePoint_TwoColludersOutvotedByThreeHonestTrees(t *testing.T) {
	// m = 5 tolerates f = 2 same-delta colluders: the three honest trees
	// form the majority. Needs a very dense network, per the paper.
	net, err := topology.Random(topology.Config{Nodes: 800, FieldSide: 350, Range: 50}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Tree.K = 8
	in := deployM(t, net, cfg, 5, 9)
	var c0, c1 topology.NodeID = topology.None, topology.None
	for i := 1; i < in.Net.N(); i++ {
		switch in.Trees.Tree[i] {
		case 0:
			if c0 == topology.None {
				c0 = topology.NodeID(i)
			}
		case 1:
			if c1 == topology.None {
				c1 = topology.NodeID(i)
			}
		}
	}
	if c0 == topology.None || c1 == topology.None {
		t.Skip("missing aggregators")
	}
	in.Pollute(c0, 700)
	in.Pollute(c1, 700)
	v := count(t, in)
	if !v.Accepted {
		t.Fatalf("honest 3-of-5 majority did not carry: totals %v", v.Totals[:v.M])
	}
	honest := int64(len(in.Participants()))
	if v.Value > honest || v.Value < honest*85/100 {
		t.Fatalf("majority value %d vs participants %d (totals %v)", v.Value, honest, v.Totals[:v.M])
	}
	if v.Outliers != 1<<0|1<<1 {
		t.Fatalf("outliers %v, want the two polluted trees [0 1] (totals %v)", v.Outliers.Trees(), v.Totals[:v.M])
	}
}

// TestTreeCountValidation: Deploy rejects tree counts outside
// [2, tree.MaxTrees], slice-less configurations and, under Equation (1),
// an aggregator budget below the tree count; Equation (2) deploys at any m.
func TestTreeCountValidation(t *testing.T) {
	net, _ := topology.Grid(3, 20, 50)
	noSlices := treesConfig(2)
	noSlices.Slices = 0
	smallK := treesConfig(4)
	smallK.Tree.K = 3
	bad := []struct {
		name string
		cfg  Config
		m    int
	}{
		{"one tree", treesConfig(1), 1},
		{"nine trees", treesConfig(9), 9},
		{"no slices", noSlices, 2},
		{"K below m", smallK, 4},
	}
	for _, c := range bad {
		if err := (&Instance{}).Deploy(net, c.cfg, 1, c.m); err == nil {
			t.Fatalf("%s: config accepted", c.name)
		}
	}
	fixed := smallK
	fixed.Tree.Adaptive = false
	for m := 2; m <= tree.MaxTrees; m++ {
		if err := (&Instance{}).Deploy(net, fixed, 1, m); err != nil {
			t.Fatalf("Equation (2) at m=%d: %v", m, err)
		}
	}
}

func TestMultiTreeDeterministic(t *testing.T) {
	run := func() []int64 {
		net, _ := topology.Random(topology.PaperConfig(300), rng.New(42))
		v := count(t, deployM(t, net, treesConfig(3), 3, 43))
		return v.Totals[:v.M]
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

// TestExactTotalsUnderTDMA checks every tree total against the truth. On
// the TDMA channel data frames never collide and ARQ recovers every
// unicast an ACK corrupts, so no slice or aggregate is lost: each of the m
// totals must equal the participants' reading sum exactly, and
// the non-participants' large readings must not leak into any tree.
func TestExactTotalsUnderTDMA(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, m := range []int{2, 3, 4} {
			net, err := topology.Random(topology.PaperConfig(900), rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			cfg := treesConfig(m)
			cfg.MAC.Scheme = mac.SchemeTDMA
			in := deployM(t, net, cfg, m, seed+77)
			readings := make([]int64, net.N())
			for i := range readings {
				readings[i] = 1000
			}
			var want int64
			participants := in.Participants()
			for _, id := range participants {
				readings[id] = int64(id%17 + 3)
				want += readings[id]
			}
			res, err := in.RunSum(readings)
			if err != nil {
				t.Fatal(err)
			}
			v := res.Outcomes[0]
			t.Logf("seed %d m=%d: %d participants, sum %d", seed, m, len(participants), want)
			for tr, got := range v.Totals[:v.M] {
				if got != want {
					t.Errorf("seed %d m=%d: tree %d total %d, want %d over %d participants (totals %v)",
						seed, m, tr, got, want, len(participants), v.Totals[:v.M])
				}
			}
		}
	}
}
