package tree

import (
	"fmt"
	"slices"
	"testing"

	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// baseOnly builds the degenerate forest of an n-node deployment where
// only the base station exists on either tree: every sensor is undecided
// with no audible aggregators.
func baseOnly(n int) *Forest {
	f := &Forest{
		Tree:   make([]int, n),
		Parent: make([]topology.NodeID, n),
		Hop:    make([]uint16, n),
		Heard:  [][][]topology.NodeID{make([][]topology.NodeID, n), make([][]topology.NodeID, n)},
	}
	for i := range f.Tree {
		f.Tree[i] = NoTree
		f.Parent[i] = topology.None
	}
	if n > 0 {
		f.Tree[0] = Root
	}
	return f
}

func TestCoverageParticipationDegenerate(t *testing.T) {
	// With no sensors there is nothing to miss: full coverage and
	// participation.
	for _, n := range []int{0, 1} {
		f := baseOnly(n)
		if got := f.CoverageFraction(); got != 1 {
			t.Fatalf("CoverageFraction over %d nodes = %v, want 1", n, got)
		}
		if got := f.ParticipationFraction(2); got != 1 {
			t.Fatalf("ParticipationFraction(2) over %d nodes = %v, want 1", n, got)
		}
	}

	// A base-station-only forest over real sensors covers nothing: every
	// sensor is isolated from both trees.
	f := baseOnly(5)
	if got := f.CoverageFraction(); got != 0 {
		t.Fatalf("base-only coverage = %v, want 0", got)
	}
	if got := f.ParticipationFraction(2); got != 0 {
		t.Fatalf("base-only participation = %v, want 0", got)
	}

	// With the base station audible to one sensor on both trees, that
	// sensor is covered, and participates exactly when l ≤ 1.
	f.Heard[0][1] = []topology.NodeID{0}
	f.Heard[1][1] = []topology.NodeID{0}
	if got := f.CoverageFraction(); got != 0.25 {
		t.Fatalf("one-covered coverage = %v, want 0.25", got)
	}
	if got := f.ParticipationFraction(1); got != 0.25 {
		t.Fatalf("participation l=1 = %v, want 0.25", got)
	}
	if got := f.ParticipationFraction(2); got != 0 {
		t.Fatalf("participation l=2 = %v, want 0", got)
	}

	// An extra base station counts as covered and able to slice, whatever
	// it heard.
	f.Tree[4] = Root
	if !f.CanSlice(4, 1) || !f.CanSlice(4, 5) {
		t.Fatal("extra base station not covered")
	}
	if got := f.CoverageFraction(); got != 0.5 {
		t.Fatalf("coverage with an extra root = %v, want 0.5", got)
	}
}

// TestRoleCountsSumToSensors: ipda_tree_roles_total labels every sensor
// exactly once, for two trees and for three. On a sparse deployment, where
// many sensors never hear every tree, the undecided label must count them:
// the tree labels (red, blue, then t2, …) plus leaf and undecided sum to
// the node count less the base stations, and each label matches the
// forest.
func TestRoleCountsSumToSensors(t *testing.T) {
	for _, trees := range []int{2, 3} {
		r := rng.New(43)
		net, err := topology.Random(topology.PaperConfig(200), r.Split(0))
		if err != nil {
			t.Fatal(err)
		}
		sim := eventsim.New()
		medium := radio.New(sim, net, radio.PaperRate)
		m := mac.New(sim, medium, net.N(), mac.DefaultConfig(), r.Split(1))
		cfg := DefaultConfig()
		cfg.ExtraRoots = []topology.NodeID{7}
		cfg.Obs = obs.NewSink()
		// Build twice on one Builder: counts accumulate across builds, and
		// the second build must add exactly the same tallies as the first.
		var b Builder
		for pass := 1; pass <= 2; pass++ {
			sim.Reset()
			medium.Reset(net)
			m.Reset(net.N(), mac.DefaultConfig(), r.Split(1))
			f, err := b.Build(sim, m, net, cfg, trees, r.Split(2))
			if err != nil {
				t.Fatal(err)
			}
			count := func(role string) int {
				v := cfg.Obs.Reg.Counter("ipda_tree_roles_total", "", obs.Label{Name: "role", Value: role}).Value()
				return int(v) / pass
			}
			sum := count("leaf") + count("undecided")
			for tr, name := range names[:trees] {
				c := count(name)
				if c != len(f.Aggregators(tr)) {
					t.Fatalf("m=%d pass %d: counted %d %s aggregators; forest has %d", trees, pass, c, name, len(f.Aggregators(tr)))
				}
				sum += c
			}
			if roots := 1 + len(cfg.ExtraRoots); sum != net.N()-roots {
				t.Fatalf("m=%d pass %d: roles sum to %d, want %d sensors", trees, pass, sum, net.N()-roots)
			}
			uncovered := 0
			for i := range f.Tree {
				if !f.CanSlice(topology.NodeID(i), 1) {
					uncovered++
				}
			}
			if undecided := count("undecided"); undecided < uncovered || uncovered == 0 {
				t.Fatalf("m=%d pass %d: %d undecided for %d uncovered sensors", trees, pass, undecided, uncovered)
			}
		}
		if trees == 2 && cfg.Obs.Reg.Counter("ipda_tree_roles_total", "", obs.Label{Name: "role", Value: "t2"}).Value() != 0 {
			t.Fatal("a two-tree build counted a t2 aggregator")
		}
	}
}

// TestHeardListsHaveNoDuplicates pins what lets onHello append without a
// membership scan: every sender is heard at most once per tree, extra roots
// included, because broadcasts are never retransmitted and each node sends
// each tree's HELLO once. The m3 case covers the three-tree flood.
func TestHeardListsHaveNoDuplicates(t *testing.T) {
	for _, trees := range []int{2, 3} {
		t.Run(fmt.Sprintf("m%d", trees), func(t *testing.T) {
			for n := 200; n <= 600; n += 100 {
				r := rng.New(uint64(n))
				net, err := topology.Random(topology.PaperConfig(n), r.Split(0))
				if err != nil {
					t.Fatal(err)
				}
				sim := eventsim.New()
				medium := radio.New(sim, net, radio.PaperRate)
				m := mac.New(sim, medium, net.N(), mac.DefaultConfig(), r.Split(1))
				cfg := DefaultConfig()
				cfg.ExtraRoots = []topology.NodeID{7, topology.NodeID(n / 2)}
				f, err := new(Builder).Build(sim, m, net, cfg, trees, r.Split(2))
				if err != nil {
					t.Fatal(err)
				}
				for tr, heard := range f.Heard {
					for i, h := range heard {
						for k, src := range h {
							if slices.Contains(h[:k], src) {
								t.Fatalf("N=%d: node %d heard %d twice on tree %d: %v", n, i, src, tr, h)
							}
						}
					}
				}
			}
		})
	}
}
