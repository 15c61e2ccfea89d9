package tree

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// build runs the red/blue Phase I over a fresh random deployment.
func build(t *testing.T, nodes int, seed uint64, cfg Config) (*Forest, *topology.Network) {
	t.Helper()
	return buildM(t, nodes, seed, cfg, 2)
}

// buildM runs Phase I for the given tree count over a fresh random
// deployment.
func buildM(t *testing.T, nodes int, seed uint64, cfg Config, trees int) (*Forest, *topology.Network) {
	t.Helper()
	r := rng.New(seed)
	net, err := topology.Random(topology.PaperConfig(nodes), r.Split(0))
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New()
	medium := radio.New(sim, net, radio.PaperRate)
	m := mac.New(sim, medium, net.N(), mac.DefaultConfig(), r.Split(1))
	res, err := new(Builder).Build(sim, m, net, cfg, trees, r.Split(2))
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
		// Covered means able to slice with l = 1.
		if res.CanSlice(id, 2) && !res.CanSlice(id, 1) {
			t.Fatalf("node %d can slice but is not covered", i)
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
	res := new(TAGBuilder).Build(sim, m, net, 10)
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
	// Every frame is heard by some neighbour: a tap counts them by sender.
	sent := make([]int, net.N())
	medium.AddTap(func(observer, src, dst topology.NodeID, frame []byte, collided bool) {
		if observer == net.Neighbors(src)[0] {
			sent[src]++
		}
	})
	res, err := new(Builder).Build(sim, m, net, cfg, 2, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	if sent[0] == 0 {
		t.Fatal("the tap heard no HELLO from the base station")
	}
	for i := 1; i <= 120; i++ {
		if res.Tree[i] != NoTree || res.CanSlice(topology.NodeID(i), 1) {
			t.Fatalf("disabled node %d joined tree %d or heard a HELLO", i, res.Tree[i])
		}
		if sent[i] != 0 {
			t.Fatalf("disabled node %d transmitted", i)
		}
	}
	// The rest of the network still forms disjoint trees.
	if err := res.Check(net.N()); err != nil {
		t.Fatal(err)
	}
	live := 0
	for i := 121; i < net.N(); i++ {
		if res.CanSlice(topology.NodeID(i), 1) {
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
	res, err := new(Builder).Build(sim, m, net, DefaultConfig(), 2, r.Split(2))
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

// TestTreesAreDisjoint: the flood builds a well-formed forest with every
// tree populated, for m = 2 to 4 on a dense deployment.
func TestTreesAreDisjoint(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		f, net := buildM(t, 600, uint64(m)*13, DefaultConfig(), m)
		if err := f.Check(net.N()); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if len(f.Heard) != m {
			t.Fatalf("m=%d: %d trees built", m, len(f.Heard))
		}
		for tr := range m {
			if len(f.Aggregators(tr)) == 0 {
				t.Fatalf("m=%d: tree %d empty", m, tr)
			}
		}
	}
}

// TestCoverageDropsWithMoreTrees quantifies the paper's density warning:
// at fixed density, covering all m trees gets harder as m grows.
func TestCoverageDropsWithMoreTrees(t *testing.T) {
	cov := func(m int) float64 {
		f, _ := buildM(t, 400, 99, DefaultConfig(), m)
		return f.CoverageFraction()
	}
	c2, c3, c4 := cov(2), cov(3), cov(4)
	if c3 > c2 || c4 > c3 {
		t.Fatalf("coverage m=2 %v, m=3 %v, m=4 %v: not falling with m", c2, c3, c4)
	}
	if c2 < 0.85 {
		t.Fatalf("m=2 coverage %v too low at N=400", c2)
	}
}

// TestBuildRejectsTreeCounts: Build takes 2 to MaxTrees trees, and under
// Equation (1) at least as large an aggregator budget K as trees.
func TestBuildRejectsTreeCounts(t *testing.T) {
	net, err := topology.Grid(3, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	sim := eventsim.New()
	medium := radio.New(sim, net, radio.PaperRate)
	link := mac.New(sim, medium, net.N(), mac.DefaultConfig(), r.Split(1))
	fixed := DefaultConfig()
	fixed.Adaptive = false
	for _, c := range []struct {
		cfg Config
		m   int
		ok  bool
	}{
		{DefaultConfig(), 1, false},
		{DefaultConfig(), MaxTrees + 1, false},
		{DefaultConfig(), 4, true},
		{DefaultConfig(), 5, false},
		{fixed, MaxTrees, true},
	} {
		_, err := new(Builder).Build(sim, link, net, c.cfg, c.m, r.Split(2))
		if (err == nil) != c.ok {
			t.Errorf("m=%d adaptive=%v K=%d: err = %v", c.m, c.cfg.Adaptive, c.cfg.K, err)
		}
	}
}

// paperRole is the paper's two-colour role rule, Equations (1) and (2),
// written as Section III-B states it: red below pr, a leaf from p on, blue
// in between.
func paperRole(u float64, nRed, nBlue, k int, adaptive bool) (role int, p, pr float64) {
	if adaptive {
		p = 1
		if nRed+nBlue > k {
			p = float64(k) / float64(nRed+nBlue)
		}
		pr = p * float64(nBlue) / float64(nRed+nBlue)
	} else {
		p, pr = 1, 0.5
	}
	switch {
	case u < pr:
		return 0, p, pr
	case u >= p:
		return NoTree, p, pr
	}
	return 1, p, pr
}

// unit maps 53 random bits into [0, 1) as rng.Stream.Float64 does.
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// TestRoleRule checks the pure role rule. At m = 2 it must decide exactly
// as the paper's two-colour formulas, at the draw and at both sides of
// each bound, so red/blue forests are bit-identical. At m ≥ 3 tree t must
// own [B_t−1, B_t) for bounds B_t that sum the widths
// p·(ΣN−N_t)/((m−1)·ΣN) (p/m under Equation (2)) and end at p.
func TestRoleRule(t *testing.T) {
	two := func(x uint64, red, blue, k uint8, adaptive bool) bool {
		nRed, nBlue := int(red)%64+1, int(blue)%64+1
		c := Config{K: int(k)%14 + 2, Adaptive: adaptive}
		_, p, pr := paperRole(0, nRed, nBlue, c.K, adaptive)
		for _, u := range []float64{unit(x), pr, math.Nextafter(pr, 0), p, math.Nextafter(p, 0)} {
			if u >= 1 {
				continue
			}
			want, _, _ := paperRole(u, nRed, nBlue, c.K, adaptive)
			if got := c.role(u, []int{nRed, nBlue}); got != want {
				t.Logf("u=%v N=(%d,%d) K=%d adaptive=%v: role %d, paper %d", u, nRed, nBlue, c.K, adaptive, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(two, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}

	many := func(x uint64, counts [MaxTrees]uint8, mm, k uint8, adaptive bool) bool {
		m := int(mm)%(MaxTrees-2) + 3
		heard := make([]int, m)
		total := 0
		for i := range heard {
			heard[i] = int(counts[i])%64 + 1
			total += heard[i]
		}
		c := Config{K: m + int(k)%8, Adaptive: adaptive}
		p := 1.0
		if adaptive && total > c.K {
			p = float64(c.K) / float64(total)
		}
		// Widths are at least p/(8·512) > 1e-6 here, so a margin of 1e-9
		// tells every interval's ends apart from float rounding.
		const margin = 1e-9
		lo := 0.0
		for tr := range m {
			w := p / float64(m)
			if adaptive {
				w = p * float64(total-heard[tr]) / float64((m-1)*total)
			}
			hi := lo + w
			for _, u := range []float64{lo + margin, (lo + hi) / 2, hi - margin} {
				if got := c.role(u, heard); got != tr {
					t.Logf("u=%v in tree %d's interval [%v, %v) (heard %v, K=%d, adaptive=%v): role %d", u, tr, lo, hi, heard, c.K, adaptive, got)
					return false
				}
			}
			lo = hi
		}
		if math.Abs(lo-p) > margin {
			t.Logf("widths sum to %v, want p = %v", lo, p)
			return false
		}
		u := unit(x)
		return c.role(p, heard) == NoTree && c.role(math.Nextafter(p, 0), heard) == m-1 &&
			(u < p || c.role(u, heard) == NoTree)
	}
	if err := quick.Check(many, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestFixedRuleAtThreeTrees runs Equation (2) at m = 3: every node that
// heard all three trees aggregates (p = 1), every other sensor stays
// undecided, and each tree's aggregator count lies within 4σ of its
// Binomial(A, 1/3) mean over the A aggregators.
func TestFixedRuleAtThreeTrees(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Adaptive = false
	const m = 3
	f, net := buildM(t, 600, 47, cfg, m)
	if err := f.Check(net.N()); err != nil {
		t.Fatal(err)
	}
	agg := 0
	for i := 1; i < net.N(); i++ {
		covered := f.CanSlice(topology.NodeID(i), 1)
		if covered != (f.Tree[i] >= 0) {
			t.Fatalf("node %d: covered %v but on tree %d", i, covered, f.Tree[i])
		}
		if covered {
			agg++
		}
	}
	if agg < 100 {
		t.Fatalf("only %d aggregators", agg)
	}
	mean := float64(agg) / m
	sigma := math.Sqrt(float64(agg) * (1.0 / m) * (1 - 1.0/m))
	for tr := range m {
		if c := float64(len(f.Aggregators(tr))); math.Abs(c-mean) > 4*sigma {
			t.Errorf("tree %d has %v of %d aggregators, want %v ± %v", tr, c, agg, mean, 4*sigma)
		}
	}
}

// TestParentIsLowestHopHeard: an aggregator's parent is the first
// lowest-hop aggregator of its tree it heard before deciding. Heard lists
// keep arrival order, so every sender heard before the parent must sit
// strictly deeper than it.
func TestParentIsLowestHopHeard(t *testing.T) {
	for _, m := range []int{2, 3} {
		f, net := buildM(t, 600, 53, DefaultConfig(), m)
		aggs := 0
		for i := 1; i < net.N(); i++ {
			tr := f.Tree[i]
			if tr < 0 {
				continue
			}
			aggs++
			heard, p := f.Heard[tr][i], f.Parent[i]
			pos := slices.Index(heard, p)
			if pos < 0 {
				t.Fatalf("m=%d: node %d's parent %d not heard on tree %d", m, i, p, tr)
			}
			for _, h := range heard[:pos] {
				if f.Hop[h] <= f.Hop[p] {
					t.Fatalf("m=%d: node %d heard %d (hop %d) before its parent %d (hop %d)", m, i, h, f.Hop[h], p, f.Hop[p])
				}
			}
		}
		if aggs == 0 {
			t.Fatalf("m=%d: no aggregators", m)
		}
	}
}

// TestRepairDeadAllocFree pins per-round repair at zero heap allocations
// after its first pass: availability and the skipped list live in the
// forest's own scratch.
func TestRepairDeadAllocFree(t *testing.T) {
	f, net := build(t, 400, 4, DefaultConfig())
	down := make([]bool, net.N())
	for i := 1; i < net.N(); i += 5 {
		down[i] = true
	}
	basis := slices.Clone(f.Parent)
	var out RepairOutcome
	repair := func() {
		copy(f.Parent, basis)
		var err error
		if out, err = f.RepairDead(func(id topology.NodeID) bool { return down[id] }); err != nil {
			t.Fatal(err)
		}
	}
	repair()
	if out.Reattached == 0 || len(out.Skipped) == 0 {
		t.Fatalf("down set exercises too little: %d reattached, %d skipped", out.Reattached, len(out.Skipped))
	}
	if n := testing.AllocsPerRun(20, repair); n != 0 {
		t.Fatalf("RepairDead allocates %v per pass after the first, want 0", n)
	}
}
