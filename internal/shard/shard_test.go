package shard

import (
	"math"
	"testing"

	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/world"
)

func TestDefaultRegions(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {100, 1}, {250, 1}, {400, 2}, {2000, 8}, {10000, 40}, {100000, 400}, {1000000, 512},
	}
	for _, c := range cases {
		if got := DefaultRegions(c.n); got != c.want {
			t.Fatalf("DefaultRegions(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func hierNet(t *testing.T) *topology.Network {
	t.Helper()
	net, err := topology.Random(topology.PaperConfig(500), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestHierShardIndependence pins the scale path's determinism: the
// backbone outcome is byte-identical for every shard count, and for a
// pooled arena reused across runs versus fresh construction.
func TestHierShardIndependence(t *testing.T) {
	net := hierNet(t)
	plan := NewPlan(net, 4)
	if plan.Part.R() < 2 {
		t.Fatalf("plan has %d regions, want >= 2", plan.Part.R())
	}
	want, err := RunHier(plan, core.DefaultConfig(), rng.New(2024).Split(2), 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4, 8} {
		got, err := RunHier(plan, core.DefaultConfig(), rng.New(2024).Split(2), shards, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("shards=%d: outcome %+v, shards=1 gave %+v", shards, got, want)
		}
	}
	arena := world.New()
	for trial := 0; trial < 2; trial++ {
		got, err := RunHier(plan, core.DefaultConfig(), rng.New(2024).Split(2), 4, arena, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("pooled trial %d: outcome %+v, fresh gave %+v", trial, got, want)
		}
	}
}

// TestHierSanity checks the hierarchical outcome against the protocol's
// own invariants on a clean channel.
func TestHierSanity(t *testing.T) {
	net := hierNet(t)
	plan := NewPlan(net, 4)
	out, err := RunHier(plan, core.DefaultConfig(), rng.New(2024).Split(2), 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, m := range plan.Members {
		if len(m) > 0 {
			nonEmpty++
		}
	}
	if out.Regions != nonEmpty {
		t.Fatalf("Regions = %d, want %d non-empty regions", out.Regions, nonEmpty)
	}
	if out.Participants <= 0 || out.Participants > net.N() {
		t.Fatalf("Participants = %d out of %d nodes", out.Participants, net.N())
	}
	if !out.AllAccepted || out.Accepted != out.Regions {
		t.Fatalf("backbone rejected: %+v", out)
	}
	cfg := core.DefaultConfig()
	if out.Diff() > cfg.Threshold*int64(out.Regions) {
		t.Fatalf("|S_b - S_r| = %d exceeds summed slack %d", out.Diff(), cfg.Threshold*int64(out.Regions))
	}
	if out.Red <= 0 || out.Bytes == 0 || out.Frames == 0 {
		t.Fatalf("degenerate outcome: %+v", out)
	}
}

// TestHierAllocsPerRegion pins a warm arena's hierarchical trial at a
// constant number of heap allocations per region: a region costs its
// query's Result, and planning and the backbone cost a fixed handful per
// trial, however many nodes each region owns.
func TestHierAllocsPerRegion(t *testing.T) {
	const perRegion = 2
	net, err := topology.Random(topology.Config{Nodes: 2000, FieldSide: 400 * math.Sqrt(2001.0/401), Range: 50}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	arena := world.New()
	regions := 0
	trial := func() {
		plan := NewPlan(net, 40)
		out, err := RunHier(plan, core.DefaultConfig(), rng.New(2024).Split(2), 1, arena, nil)
		if err != nil {
			t.Fatal(err)
		}
		regions = out.Regions
	}
	allocs := testing.AllocsPerRun(1, trial) // the first trial warms the arena
	if regions < 20 {
		t.Fatalf("%d regions ran, want at least 20", regions)
	}
	if allocs > float64(perRegion*regions) {
		t.Fatalf("warm trial allocates %v times over %d regions, want at most %d per region", allocs, regions, perRegion)
	}
}
