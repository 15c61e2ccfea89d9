package analysis

import (
	"math"
	"testing"

	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

func TestIsolationProbability(t *testing.T) {
	// Degree 1, pr=pb=0.5: Equation (9) multiplies the "no red" and "no
	// blue" events as if independent, giving 1-(1-0.5)(1-0.5) = 0.75.
	// (The true probability is 1 — a single neighbor always misses one
	// color — so Eq. (9) is an approximation that tightens with degree.)
	if p := IsolationProbability(1, 0.5, 0.5); math.Abs(p-0.75) > 1e-12 {
		t.Fatalf("d=1: %v", p)
	}
	// Degree 2: isolated unless the two neighbors differ: p = 1 - 2*(1/4)
	// ... 1-(1-0.25)(1-0.25) = 1-0.5625 = 0.4375.
	if p := IsolationProbability(2, 0.5, 0.5); math.Abs(p-0.4375) > 1e-12 {
		t.Fatalf("d=2: %v", p)
	}
	// Large degree: vanishing isolation.
	if p := IsolationProbability(30, 0.5, 0.5); p > 1e-8 {
		t.Fatalf("d=30: %v", p)
	}
	// Degree 0: always isolated.
	if p := IsolationProbability(0, 0.5, 0.5); p != 1 {
		t.Fatalf("d=0: %v", p)
	}
}

func TestIsolationDecreasesWithDegree(t *testing.T) {
	prev := 2.0
	for d := 0; d <= 20; d++ {
		p := IsolationProbability(d, 0.5, 0.5)
		if p > prev {
			t.Fatalf("p_i not monotone at d=%d: %v > %v", d, p, prev)
		}
		prev = p
	}
}

func TestCoverageLowerBound(t *testing.T) {
	// Identical degrees: bound = 1 - N*p_i.
	degrees := make([]int, 100)
	for i := range degrees {
		degrees[i] = 10
	}
	pi := IsolationProbability(10, 0.5, 0.5)
	want := 1 - 100*pi
	if got := CoverageLowerBound(degrees, 0.5, 0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("bound %v, want %v", got, want)
	}
}

// TestPaperExampleDiscrepancy documents the Section IV-A.1 example: the
// paper claims Φ(G) ≥ 0.999 for N=1000, d=10, which matches 1 − N·2^{−2d}
// but NOT Equation (10) as written.
func TestPaperExampleDiscrepancy(t *testing.T) {
	paper := PaperRegularExample(1000, 10)
	if math.Abs(paper-0.99904632568359375) > 1e-12 {
		t.Fatalf("paper example = %v", paper)
	}
	if paper < 0.999 {
		t.Fatalf("paper example below the claimed 0.999: %v", paper)
	}
	// Equation (10) as printed gives a vacuous (negative) bound here.
	degrees := make([]int, 1000)
	for i := range degrees {
		degrees[i] = 10
	}
	eq10 := CoverageLowerBound(degrees, 0.5, 0.5)
	if eq10 > 0 {
		t.Fatalf("expected Eq.(10) to be vacuous for N=1000,d=10; got %v", eq10)
	}
}

func TestExpectedFullyCoveredFraction(t *testing.T) {
	degrees := []int{10, 10, 10, 10}
	want := 1 - IsolationProbability(10, 0.5, 0.5)
	if got := ExpectedFullyCoveredFraction(degrees, 0.5, 0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("fraction %v, want %v", got, want)
	}
	if got := ExpectedFullyCoveredFraction(nil, 0.5, 0.5); got != 1 {
		t.Fatalf("empty fraction %v", got)
	}
}

func TestPDisclosePaperExample(t *testing.T) {
	// Section IV-A.3: l=3, d-regular with E[nl]=2l-1=5, px=0.1 gives
	// P = 1-(1-1e-3)(1-1e-7) ~= 0.001.
	p := PDiscloseRegular(0.1, 3)
	if math.Abs(p-0.001) > 2e-4 {
		t.Fatalf("P_disclose(0.1) = %v, paper says ~0.001", p)
	}
}

func TestPDiscloseMonotoneInPx(t *testing.T) {
	prev := -1.0
	for px := 0.01; px <= 0.5; px += 0.01 {
		p := PDisclose(px, 2, 3)
		if p < prev {
			t.Fatalf("P_disclose not monotone at px=%v", px)
		}
		prev = p
	}
}

func TestPDiscloseDecreasesWithL(t *testing.T) {
	// Figure 5: l=3 curves sit below l=2 curves.
	for _, px := range []float64{0.02, 0.05, 0.1} {
		p2 := PDiscloseRegular(px, 2)
		p3 := PDiscloseRegular(px, 3)
		if p3 >= p2 {
			t.Fatalf("px=%v: l=3 (%v) not below l=2 (%v)", px, p3, p2)
		}
	}
}

func TestPDiscloseNetworkDensityInsensitive(t *testing.T) {
	// Figure 5's observation: P_disclose barely moves between average
	// degree 7 and 17. Build deployments matching those densities
	// (1000 nodes; field side chosen to hit the degree) and compare.
	r := rng.New(1)
	build := func(side float64) *topology.Network {
		net, err := topology.Random(topology.Config{Nodes: 1000, FieldSide: side, Range: 50}, r.Split(uint64(side)))
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	// Analytic degree = N*pi*r^2/side^2: degree 7 -> side ~ 1058,
	// degree 17 -> side ~ 680.
	sparse := build(1058)
	dense := build(680)
	for _, l := range []int{2, 3} {
		ps := PDiscloseNetwork(sparse, 0.1, l)
		pd := PDiscloseNetwork(dense, 0.1, l)
		if ps <= 0 || pd <= 0 {
			t.Fatalf("degenerate P_disclose: %v %v", ps, pd)
		}
		if ratio := ps / pd; ratio < 0.3 || ratio > 3.5 {
			t.Fatalf("l=%d: density sensitivity too strong: sparse %v vs dense %v", l, ps, pd)
		}
	}
}

func TestExpectedIncomingLinksRegular(t *testing.T) {
	// Where a node and its neighbours all have degree d, E[nl] =
	// d*(2l-1)/d = 2l-1. On a 4-neighbour lattice that holds two hops in
	// from the border and away from the base station at the centre: node
	// 21 sits at lattice point (2,2) of a 9x9 grid.
	net, err := topology.Grid(9, 10, 10.5)
	if err != nil {
		t.Fatal(err)
	}
	if d := net.Degree(21); d != 4 {
		t.Fatalf("node 21 has degree %d, want 4", d)
	}
	for _, nb := range net.Neighbors(21) {
		if d := net.Degree(nb); d != 4 {
			t.Fatalf("neighbour %d has degree %d, want 4", nb, d)
		}
	}
	for _, l := range []int{1, 2, 3} {
		got := ExpectedIncomingLinks(net, 21, l)
		want := float64(2*l - 1)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("l=%d: E[nl] = %v, want %v", l, got, want)
		}
	}
}

func TestOverheadRatio(t *testing.T) {
	if OverheadRatio(1) != 1.5 || OverheadRatio(2) != 2.5 || OverheadRatio(3) != 3.5 {
		t.Fatal("overhead ratios wrong")
	}
	tag, ipda := MessagesPerNode(2)
	if tag != 2 || ipda != 5 {
		t.Fatalf("messages per node = %d/%d", tag, ipda)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative degree": func() { IsolationProbability(-1, 0.5, 0.5) },
		"l zero":          func() { PDisclose(0.1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
