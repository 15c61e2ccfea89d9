package tree

import (
	"testing"

	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// build runs Phase I over a fresh random deployment.
func build(t *testing.T, nodes int, seed uint64, cfg Config) (*Forest, *topology.Network) {
	t.Helper()
	r := rng.New(seed)
	net, err := topology.Random(topology.PaperConfig(nodes), r.Split(0))
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	medium := radio.New(sim, net, radio.PaperRate)
	m := mac.New(sim, medium, net.N(), mac.DefaultConfig(), r.Split(1))
	res, err := BuildDisjoint(sim, m, net, cfg, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	return res, net
}

func TestDisjointInvariant(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		res, net := build(t, 400, seed, DefaultConfig())
		if err := res.Check(net.N()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestBaseStationRole(t *testing.T) {
	res, _ := build(t, 300, 1, DefaultConfig())
	if res.Tree[0] != Root {
		t.Fatalf("base station tree = %d", res.Tree[0])
	}
	if res.Parent[0] != topology.None {
		t.Fatal("base station has a parent")
	}
}

func TestParentsAreHeardAggregators(t *testing.T) {
	res, net := build(t, 400, 5, DefaultConfig())
	for i, tr := range res.Tree {
		if tr < 0 {
			continue
		}
		p := res.Parent[i]
		if !net.InRange(topology.NodeID(i), p) {
			t.Fatalf("aggregator %d parent %d out of range", i, p)
		}
		// Parent must be among the heard aggregators of the same color (or
		// the base station heard on that color).
		found := false
		for _, h := range res.Heard[tr][i] {
			if h == p {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("aggregator %d parent %d not among heard tree-%d aggregators", i, p, tr)
		}
	}
}

func TestParentChainsReachBaseStation(t *testing.T) {
	res, _ := build(t, 400, 7, DefaultConfig())
	for i, tr := range res.Tree {
		if tr < 0 {
			continue
		}
		// Walk up; must terminate at node 0 without cycles.
		seen := map[topology.NodeID]bool{}
		cur := topology.NodeID(i)
		for cur != 0 {
			if seen[cur] {
				t.Fatalf("cycle at node %d walking up from %d", cur, i)
			}
			seen[cur] = true
			cur = res.Parent[cur]
			if cur == topology.None {
				t.Fatalf("chain from %d fell off the tree", i)
			}
		}
	}
}

func TestHopsIncreaseAlongTree(t *testing.T) {
	res, _ := build(t, 400, 9, DefaultConfig())
	for i, tr := range res.Tree {
		if tr < 0 {
			continue
		}
		p := res.Parent[i]
		if p == 0 {
			continue // base station hop is 0 by definition
		}
		if res.Hop[i] <= res.Hop[p] {
			t.Fatalf("hop not increasing: node %d hop %d, parent %d hop %d", i, res.Hop[i], p, res.Hop[p])
		}
	}
}

func TestDenseNetworkCoverage(t *testing.T) {
	// At N=500 (avg degree ~22) the paper expects nearly-full coverage; we
	// require 90%+ of nodes covered by both trees.
	res, _ := build(t, 500, 11, DefaultConfig())
	if frac := res.CoverageFraction(); frac < 0.9 {
		t.Fatalf("coverage %.2f at N=500", frac)
	}
}

func TestSparseNetworkLowerCoverage(t *testing.T) {
	resSparse, _ := build(t, 150, 13, DefaultConfig())
	resDense, _ := build(t, 600, 13, DefaultConfig())
	fs, fd := resSparse.CoverageFraction(), resDense.CoverageFraction()
	if fs >= fd {
		t.Fatalf("sparse coverage %.2f not below dense %.2f", fs, fd)
	}
}

func TestAdaptiveLimitsAggregatorFraction(t *testing.T) {
	// With k=4 and average degree ~22 (N=500), the adaptive rule should
	// make only a fraction of nodes aggregators, while the fixed rule
	// makes essentially all covered nodes aggregators.
	adaptive, netA := build(t, 500, 17, DefaultConfig())
	fixed, _ := build(t, 500, 17, Config{Adaptive: false, DecisionDelay: 0.05, Deadline: 10})
	countAgg := func(r *Forest) int {
		return len(r.Aggregators(0)) + len(r.Aggregators(1))
	}
	na, nf := countAgg(adaptive), countAgg(fixed)
	if na >= nf {
		t.Fatalf("adaptive aggregators %d not below fixed %d", na, nf)
	}
	if float64(na)/float64(netA.N()) > 0.7 {
		t.Fatalf("adaptive made %d/%d nodes aggregators", na, netA.N())
	}
}

func TestRedBlueBalanced(t *testing.T) {
	res, _ := build(t, 500, 19, DefaultConfig())
	nr, nb := len(res.Aggregators(0)), len(res.Aggregators(1))
	if nr == 0 || nb == 0 {
		t.Fatalf("degenerate trees: %d red, %d blue", nr, nb)
	}
	ratio := float64(nr) / float64(nb)
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("red/blue imbalance: %d vs %d", nr, nb)
	}
}

func TestCanSliceImpliesCovered(t *testing.T) {
	res, net := build(t, 400, 23, DefaultConfig())
	for i := 0; i < net.N(); i++ {
		id := topology.NodeID(i)
		if res.CanSlice(id, 2) && !res.Covered(id) {
			t.Fatalf("node %d can slice but is not covered", i)
		}
		if res.Covered(id) && !res.CanSlice(id, 1) {
			t.Fatalf("node %d covered but cannot slice l=1", i)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a, _ := build(t, 300, 29, DefaultConfig())
	b, _ := build(t, 300, 29, DefaultConfig())
	for i := range a.Tree {
		if a.Tree[i] != b.Tree[i] || a.Parent[i] != b.Parent[i] {
			t.Fatalf("run diverged at node %d", i)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{K: 1, Adaptive: true, DecisionDelay: 1, Deadline: 1},
		{K: 4, Adaptive: true, DecisionDelay: 0, Deadline: 1},
		{K: 4, Adaptive: true, DecisionDelay: 1, Deadline: 0},
		{K: 4, Adaptive: true, DecisionDelay: 1, Deadline: 1, ExtraRoots: []topology.NodeID{7, 9, 7}},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTAGSpansNetwork(t *testing.T) {
	r := rng.New(31)
	net, err := topology.Random(topology.PaperConfig(400), r.Split(0))
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	medium := radio.New(sim, net, radio.PaperRate)
	m := mac.New(sim, medium, net.N(), mac.DefaultConfig(), r.Split(1))
	res := BuildTAG(sim, medium, m, net, 10)
	reached := 0
	for i := 0; i < net.N(); i++ {
		if res.Reached[i] {
			reached++
		}
	}
	// Dense network: nearly everyone joins the TAG tree.
	if float64(reached)/float64(net.N()) < 0.95 {
		t.Fatalf("TAG reached only %d/%d", reached, net.N())
	}
	// Parent pointers form a tree rooted at 0.
	for i := 1; i < net.N(); i++ {
		if !res.Reached[i] {
			continue
		}
		seen := map[topology.NodeID]bool{}
		cur := topology.NodeID(i)
		for cur != 0 {
			if seen[cur] || cur == topology.None {
				t.Fatalf("broken TAG chain from %d", i)
			}
			seen[cur] = true
			cur = res.Parent[cur]
		}
	}
}

func TestDisabledNodesStaySilent(t *testing.T) {
	r := rng.New(41)
	net, err := topology.Random(topology.PaperConfig(400), r.Split(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Disabled = make([]bool, net.N())
	for i := 1; i <= 120; i++ {
		cfg.Disabled[i] = true
	}
	sim := eventsim.New()
	medium := radio.New(sim, net, radio.PaperRate)
	m := mac.New(sim, medium, net.N(), mac.DefaultConfig(), r.Split(1))
	res, err := BuildDisjoint(sim, m, net, cfg, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 120; i++ {
		if res.Tree[i] != NoTree || res.Covered(topology.NodeID(i)) {
			t.Fatalf("disabled node %d joined tree %d or heard a HELLO", i, res.Tree[i])
		}
		if medium.NodeFramesSent(topology.NodeID(i)) != 0 {
			t.Fatalf("disabled node %d transmitted", i)
		}
	}
	// The rest of the network still forms disjoint trees.
	if err := res.Check(net.N()); err != nil {
		t.Fatal(err)
	}
	live := 0
	for i := 121; i < net.N(); i++ {
		if res.Covered(topology.NodeID(i)) {
			live++
		}
	}
	if live == 0 {
		t.Fatal("no live node covered despite 279 live nodes")
	}
}

// TestPhaseAccountsTraffic: every HELLO Phase I sends goes on the air —
// one from the base station per color, one per aggregator, none from
// leaves or undecided nodes.
func TestPhaseAccountsTraffic(t *testing.T) {
	r := rng.New(37)
	net, err := topology.Random(topology.PaperConfig(300), r.Split(0))
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	medium := radio.New(sim, net, radio.PaperRate)
	m := mac.New(sim, medium, net.N(), mac.DefaultConfig(), r.Split(1))
	res, err := BuildDisjoint(sim, m, net, DefaultConfig(), r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(2 + len(res.Aggregators(0)) + len(res.Aggregators(1)))
	if got := medium.Stats().FramesSent; got != want {
		t.Fatalf("%d HELLO frames on the air, want %d (2 from the base station + one per aggregator)", got, want)
	}
	if medium.TotalBytes() < want {
		t.Fatal("bytes < frames")
	}
}
