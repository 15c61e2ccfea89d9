package experiments

import (
	"github.com/ipda-sim/ipda/internal/harness"
	"github.com/ipda-sim/ipda/internal/metrics"
	"github.com/ipda-sim/ipda/internal/world"
)

// Fig8 reproduces Figure 8: (a) fraction of nodes covered by both trees,
// (b) fraction participating in the aggregation (enough neighbors to send
// l slices), and (c) COUNT accuracy of iPDA (l=1, l=2) vs TAG, all as a
// function of network size.
func Fig8(o Options) (*Table, error) {
	t := &Table{
		ID:    "fig8",
		Title: "Coverage, participation and accuracy (Figure 8 a/b/c)",
		Columns: []string{
			"nodes",
			"covered both",
			"participate l=1", "participate l=2",
			"accuracy l=1", "accuracy l=2", "accuracy TAG",
		},
		Notes: []string{
			"accuracy = collected COUNT / true node count (Sec. IV-B.3)",
		},
	}
	sizes := o.sizes()
	s := o.sweep("fig8", len(sizes), 10)
	covered := harness.NewAcc(s)
	part1 := harness.NewAcc(s)
	part2 := harness.NewAcc(s)
	acc1 := harness.NewAcc(s)
	acc2 := harness.NewAcc(s)
	accTag := harness.NewAcc(s)
	err := s.Run(func(tr *harness.T) error {
		arena := world.FromTrial(tr)
		n := sizes[tr.Point]
		net, err := deployment(tr, n, tr.Rng.Split(1))
		if err != nil {
			return err
		}
		truth := float64(n)
		for _, l := range []int{1, 2} {
			cfg := o.coreConfig()
			cfg.Slices = l
			// One slot serves both l values: each instance's metrics are
			// read before the next l resets the slot.
			in, err := arena.Core("fig8", net, cfg, tr.Rng.Split(uint64(l)).Uint64())
			if err != nil {
				return err
			}
			q, err := in.RunCount()
			if err != nil {
				return err
			}
			acc := metrics.Accuracy(float64(q.Outcomes[0].Red), truth)
			if l == 1 {
				part1.Add(tr, in.Trees.ParticipationFraction(1))
				acc1.Add(tr, acc)
			} else {
				// Coverage and l=2 participation come from the same
				// instance, so participation <= coverage holds exactly
				// (CanSlice implies CoveredBoth).
				covered.Add(tr, in.Trees.CoverageFraction())
				part2.Add(tr, in.Trees.ParticipationFraction(2))
				acc2.Add(tr, acc)
			}
		}
		tg, err := arena.Tag("fig8", net, o.tagConfig(), tr.Rng.Split(7).Uint64())
		if err != nil {
			return err
		}
		q, err := tg.RunCount()
		if err != nil {
			return err
		}
		accTag.Add(tr, metrics.Accuracy(float64(q.Outcomes[0].Sum), truth))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, n := range sizes {
		t.AddRow(
			d(int64(n)),
			f(covered.Point(pi).Mean()),
			f(part1.Point(pi).Mean()), f(part2.Point(pi).Mean()),
			f(acc1.Point(pi).Mean()), f(acc2.Point(pi).Mean()), f(accTag.Point(pi).Mean()),
		)
	}
	return t, nil
}
