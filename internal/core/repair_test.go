package core

import (
	"slices"
	"testing"

	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/tree"
)

// repairedParticipants predicts a round's participants after killing dead
// with repair on: RepairDead's skipped aggregators sit out and are no
// slice target, and every other live sensor takes part when each tree
// still offers it l live targets, counting itself on its own tree. (Every
// link is keyed under the default pairwise scheme.)
func repairedParticipants(t *testing.T, f *tree.Forest, dead map[topology.NodeID]bool, l int) []topology.NodeID {
	t.Helper()
	g := *f
	g.Parent = slices.Clone(f.Parent)
	out, err := g.RepairDead(func(id topology.NodeID) bool { return dead[id] })
	if err != nil {
		t.Fatal(err)
	}
	away := func(id topology.NodeID) bool { return dead[id] || slices.Contains(out.Skipped, id) }
	var parts []topology.NodeID
	for i := 1; i < len(f.Tree); i++ {
		id := topology.NodeID(i)
		if away(id) || f.Tree[i] == tree.Root {
			continue
		}
		ok := true
		for tr, heard := range f.Heard {
			n := 0
			if f.Tree[i] == tr {
				n++
			}
			for _, c := range heard[i] {
				if !away(c) {
					n++
				}
			}
			ok = ok && n >= l
		}
		if ok {
			parts = append(parts, id)
		}
	}
	return parts
}

// TestExactTotalsUnderKillsAndRepair kills an aggregator with children on
// each of trees 0 and 1 of an m = 3 deployment on the TDMA channel, whose
// slots keep data frames apart and whose ARQ recovers every unicast an ACK
// corrupts. With repair, the orphans re-attach and senders avoid the dead,
// so every tree total is exact: a COUNT equals the round's participants on
// all three trees, a SUM equals the participants' true sum, and the
// majority accepts. Without repair (the control) the two dead subtrees
// vanish from their trees only, and the totals diverge.
func TestExactTotalsUnderKillsAndRepair(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		net, err := topology.Random(topology.PaperConfig(900), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, repair := range []bool{true, false} {
			cfg := treesConfig(3)
			cfg.MAC.Scheme = mac.SchemeTDMA
			cfg.Repair = repair
			in := deployM(t, net, cfg, 3, seed+77)
			dead := map[topology.NodeID]bool{}
			for tr := 0; tr < 2; tr++ {
				for _, a := range in.Trees.Aggregators(tr) {
					if slices.Contains(in.Trees.Parent, a) {
						dead[a] = true
						break
					}
				}
			}
			if len(dead) != 2 {
				t.Fatalf("seed %d: no aggregator with children on trees 0 and 1", seed)
			}
			parts := repairedParticipants(t, in.Trees, dead, cfg.Slices)
			for id := range dead {
				in.Kill(id)
			}

			n := net.N()
			ones := make([]int64, n)
			for i := range ones {
				ones[i] = 1
			}
			count, err := in.RunRound(ones)
			if err != nil {
				t.Fatal(err)
			}
			countTotals := count.Totals[:count.M]
			readings := make([]int64, n)
			for i := range readings {
				readings[i] = 1000 // must not leak in from non-participants
			}
			var want int64
			for _, id := range parts {
				readings[id] = int64(id%17 + 3)
				want += readings[id]
			}
			sum, err := in.RunRound(readings)
			if err != nil {
				t.Fatal(err)
			}
			sumTotals := sum.Totals[:sum.M]

			if !repair {
				if slices.Min(countTotals) == slices.Max(countTotals) || slices.Min(sumTotals) == slices.Max(sumTotals) {
					t.Fatalf("seed %d: without repair the totals agree (COUNT %v, SUM %v): the kills cost nothing", seed, countTotals, sumTotals)
				}
				continue
			}
			if count.Dead != 2 || count.Repaired == 0 {
				t.Fatalf("seed %d: %d dead, %d repaired, want 2 dead and some repair", seed, count.Dead, count.Repaired)
			}
			if count.Participants != len(parts) || sum.Participants != len(parts) {
				t.Fatalf("seed %d: %d and %d participants, want %d", seed, count.Participants, sum.Participants, len(parts))
			}
			for tr := range countTotals {
				if countTotals[tr] != int64(count.Participants) {
					t.Errorf("seed %d: tree %d COUNT %d, want %d participants (totals %v)", seed, tr, countTotals[tr], count.Participants, countTotals)
				}
				if sumTotals[tr] != want {
					t.Errorf("seed %d: tree %d SUM %d, want %d (totals %v)", seed, tr, sumTotals[tr], want, sumTotals)
				}
			}
			if !sum.Accepted || sum.Outliers != 0 {
				t.Errorf("seed %d: majority verdict accepted %v, outliers %v", seed, sum.Accepted, sum.Outliers.Trees())
			}
		}
	}
}
