package topology

import (
	"math"
	"strconv"
	"testing"

	"github.com/ipda-sim/ipda/internal/geom"
	"github.com/ipda-sim/ipda/internal/rng"
)

func TestPartitionGridCoversAllNodes(t *testing.T) {
	net, err := Random(PaperConfig(400), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	p := PartitionGrid(net, 4)
	if p.R() < 4 {
		t.Fatalf("R() = %d, want >= 4", p.R())
	}
	seen := make([]bool, net.N())
	total := 0
	for r, reg := range p.Regions {
		for _, id := range reg.Owned {
			if seen[id] {
				t.Fatalf("node %d owned by two regions", id)
			}
			seen[id] = true
			total++
			if int(p.Owner[id]) != r {
				t.Fatalf("Owner[%d] = %d, region says %d", id, p.Owner[id], r)
			}
			if !inside(reg.Bounds, net.Positions[id]) {
				t.Fatalf("node %d at %v outside its region bounds %+v", id, net.Positions[id], reg.Bounds)
			}
		}
	}
	if total != net.N() {
		t.Fatalf("regions own %d of %d nodes", total, net.N())
	}
}

func TestPartitionGridSingleRegion(t *testing.T) {
	net, err := Random(PaperConfig(100), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	p := PartitionGrid(net, 1)
	if p.R() != 1 {
		t.Fatalf("R() = %d, want 1", p.R())
	}
	if len(p.Regions[0].Owned) != net.N() {
		t.Fatalf("sole region owns %d of %d nodes", len(p.Regions[0].Owned), net.N())
	}
}

func TestInducedMatchesParentEdges(t *testing.T) {
	net, err := Random(PaperConfig(300), rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	p := PartitionGrid(net, 4)
	var pool Pool
	for r, reg := range p.Regions {
		if len(reg.Owned) == 0 {
			continue
		}
		sub := pool.Induced(net, reg.Owned)
		if sub.N() != len(reg.Owned) {
			t.Fatalf("region %d: induced N = %d, want %d", r, sub.N(), len(reg.Owned))
		}
		for l, g := range reg.Owned {
			if sub.Positions[l] != net.Positions[g] {
				t.Fatalf("region %d: local %d position mismatch", r, l)
			}
			// The induced neighbor list must be exactly the parent's list
			// filtered to members, in parent order.
			want := 0
			for _, nb := range net.Neighbors(g) {
				if p.Owner[nb] == int32(r) {
					want++
				}
			}
			if sub.Degree(NodeID(l)) != want {
				t.Fatalf("region %d: local %d degree %d, want %d", r, l, sub.Degree(NodeID(l)), want)
			}
			for _, lnb := range sub.Neighbors(NodeID(l)) {
				gnb := reg.Owned[lnb]
				if !net.InRange(g, gnb) {
					t.Fatalf("region %d: induced edge %d-%d not a parent edge", r, l, lnb)
				}
			}
		}
	}
}

func TestInducedReuseAcrossRegions(t *testing.T) {
	// A single pool slicing many differently-sized member sets (including
	// after the parent itself changes) must keep producing correct subnets.
	var pool Pool
	for _, seed := range []uint64{1, 2} {
		net, err := Random(PaperConfig(200), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []int{8, 2} {
			p := PartitionGrid(net, want)
			for r, reg := range p.Regions {
				if len(reg.Owned) == 0 {
					continue
				}
				sub := pool.Induced(net, reg.Owned)
				edges := 0
				for l := 0; l < sub.N(); l++ {
					edges += sub.Degree(NodeID(l))
				}
				wantEdges := 0
				for _, g := range reg.Owned {
					for _, nb := range net.Neighbors(g) {
						if p.Owner[nb] == int32(r) {
							wantEdges++
						}
					}
				}
				if edges != wantEdges {
					t.Fatalf("seed=%d want=%d region=%d: %d induced edge-ends, want %d",
						seed, want, r, edges, wantEdges)
				}
			}
		}
	}
}

func TestPoolRandomAllocFreeAcrossSizes(t *testing.T) {
	// Satellite pin: a pool that has deployed its largest field stops
	// allocating even when trial sizes alternate wildly (shrink/regrow),
	// which is what per-trial repartitioning at scale produces.
	if testing.Short() {
		t.Skip("large-N pin skipped in -short")
	}
	var pool Pool
	configs := []Config{
		{Nodes: 400, FieldSide: 400, Range: 50},
		{Nodes: 50000, FieldSide: 4200, Range: 50},
		{Nodes: 400, FieldSide: 400, Range: 50},
	}
	r := rng.New(77)
	for _, c := range configs { // warm to max footprint
		if _, err := pool.Random(c, r); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(4, func() {
		c := configs[i%len(configs)]
		i++
		if _, err := pool.Random(c, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Pool.Random allocated %v per run after warmup, want 0", allocs)
	}
}

func TestInducedAllocFreeSteadyState(t *testing.T) {
	net, err := Random(PaperConfig(400), rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	p := PartitionGrid(net, 8)
	var pool Pool
	for _, reg := range p.Regions { // warm
		if len(reg.Owned) > 0 {
			pool.Induced(net, reg.Owned)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		reg := p.Regions[i%p.R()]
		i++
		if len(reg.Owned) > 0 {
			pool.Induced(net, reg.Owned)
		}
	})
	if allocs != 0 {
		t.Fatalf("Induced allocated %v per run after warmup, want 0", allocs)
	}
}

// TestPartitionGridAllocsIndependentOfN pins PartitionGrid at a fixed
// number of allocations, however many nodes its regions own: the Owned
// lists are windows of one array, not per-region appends.
func TestPartitionGridAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int) float64 {
		side := 400 * math.Sqrt(float64(n+1)/401)
		net := &Network{Positions: make([]geom.Point, n), Bounds: geom.Rect{MaxX: side, MaxY: side}}
		place(net.Positions, net.Bounds, rng.New(uint64(n)))
		return testing.AllocsPerRun(10, func() { PartitionGrid(net, 40) })
	}
	if small, large := allocs(2000), allocs(10000); small != large {
		t.Fatalf("PartitionGrid allocates %v times at 2,000 nodes and %v at 10,000, want equal", small, large)
	}
}

// BenchmarkPoolRandom deploys paper-density fields into a warm pool: the
// fresh-deployment cost every trial of a sweep pays before Phase I.
func BenchmarkPoolRandom(b *testing.B) {
	for _, n := range []int{600, 2000, 10000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			side := 400 * math.Sqrt(float64(n+1)/401)
			c := Config{Nodes: n, FieldSide: side, Range: 50}
			var pool Pool
			r := rng.New(5)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pool.Random(c, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
