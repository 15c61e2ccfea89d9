package experiments

import (
	"github.com/ipda-sim/ipda/internal/harness"
	"github.com/ipda-sim/ipda/internal/privacy"
)

// Indistinguishability runs the two-world privacy game (the framework the
// reproduction's nominal title names) across p_x, comparing full-ring and
// bounded slicing for l ∈ {2, 3}, against the analytic full-ring optimum.
// Each (p_x, variant) cell is one sweep point whose single trial plays
// the game cfg.Trials times, so the three variants of a p_x value run
// concurrently.
func Indistinguishability(o Options) (*Table, error) {
	t := &Table{
		ID:    "indist",
		Title: "Indistinguishability advantage vs p_x (privacy framework)",
		Columns: []string{
			"p_x",
			"ring l=2", "theory l=2",
			"ring l=3", "theory l=3",
			"bounded l=2 (scale leak)",
		},
		Notes: []string{
			"ring = full-ring shares; advantage only from complete reconstructions",
			"bounded = SplitBoundedAppend spread 4 with candidates 1 vs 100000: magnitude leaks",
		},
	}
	pxs := []float64{0.05, 0.1, 0.2, 0.3, 0.5}
	variants := []struct {
		l      int
		spread int64
	}{
		{l: 2},
		{l: 3},
		{l: 2, spread: 4},
	}
	trials := o.trials(20000)
	s := o.fixedSweep("indist", len(pxs)*len(variants), 1)
	advantage := harness.NewAcc(s)
	err := s.Run(func(tr *harness.T) error {
		v := variants[tr.Point%len(variants)]
		cfg := privacy.Config{
			Px:     pxs[tr.Point/len(variants)],
			V0:     1,
			V1:     100000,
			Trials: trials,
			L:      v.l,
			Spread: v.spread,
		}
		res, err := privacy.RunGame(cfg, tr.Rng)
		if err != nil {
			return err
		}
		advantage.Add(tr, res.Advantage)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, px := range pxs {
		at := func(variant int) float64 {
			return clampAdv(advantage.Point(pi*len(variants) + variant).Mean())
		}
		t.AddRow(
			f(px),
			f(at(0)), f(privacy.TheoreticalLeafAdvantage(px, 2)),
			f(at(1)), f(privacy.TheoreticalLeafAdvantage(px, 3)),
			f(at(2)),
		)
	}
	return t, nil
}

// clampAdv clips small negative sampling noise to zero for readability.
func clampAdv(a float64) float64 {
	if a < 0 {
		return 0
	}
	return a
}
