package experiments

import (
	"github.com/ipda-sim/ipda/internal/harness"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/world"
)

// MTrees evaluates the m > 2 generalization Section III-B sketches:
// coverage of all m trees versus network size (the paper's "the network
// must be very dense" warning, quantified) and the majority-voting
// integrity upgrade — a single polluter is outvoted and identified instead
// of merely forcing a rejection.
func MTrees(o Options) (*Table, error) {
	t := &Table{
		ID:    "mtrees",
		Title: "m-tree generalization: coverage vs m, majority voting (Sec. III-B ext.)",
		Columns: []string{
			"nodes",
			"covered m=2", "covered m=3", "covered m=4",
			"outvoted (m=3)", "identified tree",
		},
		Notes: []string{
			"covered = fraction of sensors reached by all m trees",
			"outvoted = polluted m=3 rounds where the honest majority still ACCEPTED the true value",
			"identified = those rounds where the polluted tree was named as the outlier",
		},
	}
	sizes := o.sizes()
	s := o.sweep("mtrees", len(sizes), 5)
	cov := [3]*harness.Acc{harness.NewAcc(s), harness.NewAcc(s), harness.NewAcc(s)}
	outvoted := harness.NewAcc(s)
	identified := harness.NewAcc(s)
	err := s.Run(func(tr *harness.T) error {
		arena := world.FromTrial(tr)
		net, err := deployment(tr, sizes[tr.Point], tr.Rng.Split(1))
		if err != nil {
			return err
		}
		// The three m values run strictly one after another, so they can
		// share a single arena slot.
		for mi, m := range []int{2, 3, 4} {
			cfg := o.coreConfig()
			cfg.Tree.K = max(cfg.Tree.K, m)
			cfg.QTrace = tr.QTrace.Tracer([...]string{"m2", "m3", "m4"}[mi])
			in, err := arena.MTree("mtrees", net, cfg, m, tr.Rng.Split(uint64(m)).Uint64())
			if err != nil {
				return err
			}
			cov[mi].Add(tr, in.Trees.CoverageFraction())
			if m == 3 {
				// Pollute one tree-0 aggregator and check the vote.
				var attacker topology.NodeID = topology.None
				for i := 1; i < net.N(); i++ {
					if in.Trees.Tree[i] == 0 {
						attacker = topology.NodeID(i)
						break
					}
				}
				if attacker == topology.None {
					continue // tree 0 reached nobody: skip the vote
				}
				in.Pollute(attacker, 900)
				res, err := in.RunCount()
				if err != nil {
					return err
				}
				v := res.Outcomes[0]
				honest := int64(len(in.Participants()))
				outvoted.AddBool(tr, v.Accepted && v.Value <= honest && v.Value >= honest*8/10)
				identified.AddBool(tr, v.Outliers == 1<<0)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, n := range sizes {
		ov, id := "-", "-"
		if votes := outvoted.Point(pi); votes.N() > 0 {
			ov = f(votes.Mean())
			id = f(identified.Point(pi).Mean())
		}
		t.AddRow(
			d(int64(n)),
			f(cov[0].Point(pi).Mean()), f(cov[1].Point(pi).Mean()), f(cov[2].Point(pi).Mean()),
			ov, id,
		)
	}
	return t, nil
}
