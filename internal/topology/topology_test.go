package topology

import (
	"math"
	"testing"

	"github.com/ipda-sim/ipda/internal/geom"
	"github.com/ipda-sim/ipda/internal/rng"
)

// inside reports whether p lies in r, boundary inclusive.
func inside(r geom.Rect, p geom.Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

func TestRandomBasics(t *testing.T) {
	net, err := Random(PaperConfig(300), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 301 {
		t.Fatalf("N = %d, want 301", net.N())
	}
	for i := 0; i < net.N(); i++ {
		if !inside(net.Bounds, net.Positions[i]) {
			t.Fatalf("node %d outside bounds", i)
		}
	}
	// Base station is at the center.
	if c := net.Bounds.Center(); net.Positions[0] != c {
		t.Fatalf("base station at %v, want %v", net.Positions[0], c)
	}
}

func TestRandomReproducible(t *testing.T) {
	a, _ := Random(PaperConfig(100), rng.New(42))
	b, _ := Random(PaperConfig(100), rng.New(42))
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatal("same seed produced different deployments")
		}
	}
}

func TestAdjacencySymmetricAndIrreflexive(t *testing.T) {
	net, _ := Random(PaperConfig(200), rng.New(7))
	for i := 0; i < net.N(); i++ {
		id := NodeID(i)
		for _, j := range net.Neighbors(id) {
			if j == id {
				t.Fatalf("node %d adjacent to itself", i)
			}
			found := false
			for _, k := range net.Neighbors(j) {
				if k == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d->%d", i, j)
			}
			if !net.InRange(id, j) {
				t.Fatalf("neighbor %d-%d not in range", i, j)
			}
		}
	}
}

func TestInRangeMatchesAdjacency(t *testing.T) {
	net, _ := Random(PaperConfig(120), rng.New(3))
	for i := 0; i < net.N(); i++ {
		neigh := map[NodeID]bool{}
		for _, j := range net.Neighbors(NodeID(i)) {
			neigh[j] = true
		}
		for j := 0; j < net.N(); j++ {
			if i == j {
				continue
			}
			if net.InRange(NodeID(i), NodeID(j)) != neigh[NodeID(j)] {
				t.Fatalf("InRange(%d,%d) disagrees with adjacency", i, j)
			}
		}
	}
}

// TestPaperTableIDensity reproduces Table I of the paper: average degree for
// 200..600 nodes on the 400x400 field with 50 m range. The paper reports
// 8.8, 13.7, 18.6, 23.5, 28.4 — increments of exactly N·πr²/A per 100
// nodes, i.e. the analytic density with no boundary correction. Our
// simulated deployments lose edge-of-field coverage, so measured degrees
// run ~5-7% below the table; we check within ±2.5.
func TestPaperTableIDensity(t *testing.T) {
	paper := map[int]float64{200: 8.8, 300: 13.7, 400: 18.6, 500: 23.5, 600: 28.4}
	r := rng.New(2024)
	for n, want := range paper {
		var sum float64
		const trials = 20
		for trial := 0; trial < trials; trial++ {
			net, err := Random(PaperConfig(n), r.Split(uint64(n*100+trial)))
			if err != nil {
				t.Fatal(err)
			}
			sum += net.AvgDegree()
		}
		got := sum / trials
		if math.Abs(got-want) > 2.5 {
			t.Errorf("N=%d: avg degree %.2f, paper reports %.2f", n, got, want)
		}
	}
}

func TestConnectivityDense(t *testing.T) {
	// 600 nodes at degree ~28 should be connected essentially always.
	net, _ := Random(PaperConfig(600), rng.New(5))
	hops, _ := net.HopDistancesInto(0, nil, nil)
	for i, h := range hops {
		if h < 0 {
			t.Fatalf("dense network not connected: node %d unreachable", i)
		}
	}
}

func TestReachableFromAndHops(t *testing.T) {
	net, _ := Grid(5, 10, 10.5) // 4-neighbor lattice plus center BS
	hops, _ := net.HopDistancesInto(0, nil, nil)
	// The BS sits on lattice point (2,2) and hears it and its four
	// neighbours, so every other point is its Manhattan distance from
	// (2,2) away.
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			want := max(1, abs(x-2)+abs(y-2))
			if h := hops[1+y*5+x]; h != want {
				t.Fatalf("lattice point (%d,%d): %d hops, want %d", x, y, h, want)
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestBFSAllocs pins the allocation count of the breadth-first helper:
// without scratch, the head-index queue walk allocates only the distance
// and queue buffers (one each), never a reslice-churned queue. It runs on
// the TDMA slot assignment of every deployment, so a regression here is a
// per-trial cost.
func TestBFSAllocs(t *testing.T) {
	net, err := Random(PaperConfig(400), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { net.HopDistancesInto(0, nil, nil) }); got > 2 {
		t.Errorf("HopDistancesInto allocates %.0f times per call, want <= 2", got)
	}
}

func TestGridDegrees(t *testing.T) {
	// Spacing 10, radius 10.5: lattice nodes link to 4-neighborhoods only.
	net, err := Grid(4, 10, 10.5)
	if err != nil {
		t.Fatal(err)
	}
	if net.N() != 17 {
		t.Fatalf("N = %d", net.N())
	}
	// A corner lattice node (node 1 = (0,0)) has exactly 2 lattice
	// neighbors; the BS sits at (15,15), more than 10.5 away.
	if d := net.Degree(1); d != 2 {
		t.Fatalf("corner degree = %d, want 2", d)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Nodes: 0, FieldSide: 1, Range: 1}).Validate(); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if err := (Config{Nodes: 1, FieldSide: 0, Range: 1}).Validate(); err == nil {
		t.Fatal("zero field accepted")
	}
	if err := (Config{Nodes: 1, FieldSide: 1, Range: 0}).Validate(); err == nil {
		t.Fatal("zero range accepted")
	}
	if _, err := Random(Config{}, rng.New(1)); err == nil {
		t.Fatal("Random accepted invalid config")
	}
}

func TestExpectedAvgDegree(t *testing.T) {
	// 400 nodes in 400x400 with r=50: 400*pi*2500/160000 ~= 19.6 ignoring
	// boundary effects; simulated value (18.6 in the paper) is lower.
	got := ExpectedAvgDegree(PaperConfig(400))
	if math.Abs(got-19.63) > 0.05 {
		t.Fatalf("ExpectedAvgDegree = %v", got)
	}
}

func BenchmarkRandomDeploy600(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		if _, err := Random(PaperConfig(600), r.Split(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
