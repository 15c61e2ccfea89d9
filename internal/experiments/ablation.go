package experiments

import (
	"github.com/ipda-sim/ipda/internal/harness"
	"github.com/ipda-sim/ipda/internal/world"
)

// KAblation sweeps the aggregator-budget parameter k of Section III-B
// (the paper fixes k = 4): larger k means more aggregators, hence better
// coverage but more traffic. The table shows the trade-off the paper's
// "value k balances the coverage of the aggregators and communication
// overhead" sentence describes.
func KAblation(o Options) (*Table, error) {
	t := &Table{
		ID:    "kablation",
		Title: "Aggregator budget k: coverage vs traffic (Sec. III-B ablation)",
		Columns: []string{
			"k", "aggregator frac", "covered both", "participate l=2", "round bytes",
		},
		Notes: []string{"N=400 deployments; paper recommends k=4"},
	}
	ks := []int{2, 4, 6, 8, 12}
	s := o.sweep("kablation", len(ks), 10)
	aggFrac := harness.NewAcc(s)
	covered := harness.NewAcc(s)
	part := harness.NewAcc(s)
	bytes := harness.NewAcc(s)
	err := s.Run(func(tr *harness.T) error {
		net, err := deployment(tr, 400, tr.Rng.Split(1))
		if err != nil {
			return err
		}
		cfg := o.coreConfig()
		cfg.Tree.K = ks[tr.Point]
		in, err := world.FromTrial(tr).Core("kablation", net, cfg, tr.Rng.Split(2).Uint64())
		if err != nil {
			return err
		}
		res, err := in.RunCount()
		if err != nil {
			return err
		}
		aggs := len(in.Trees.Aggregators(0)) + len(in.Trees.Aggregators(1))
		aggFrac.Add(tr, float64(aggs)/float64(net.N()-1))
		covered.Add(tr, in.Trees.CoverageFraction())
		part.Add(tr, in.Trees.ParticipationFraction(2))
		bytes.Add(tr, float64(res.Outcomes[0].Bytes))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, k := range ks {
		t.AddRow(
			d(int64(k)), f(aggFrac.Point(pi).Mean()), f(covered.Point(pi).Mean()),
			f(part.Point(pi).Mean()), f(bytes.Point(pi).Mean()),
		)
	}
	return t, nil
}

// AdaptiveAblation compares the paper's adaptive role rule (Equation 1)
// against the fixed rule (Equation 2): the adaptive rule should cut
// aggregator count and traffic at equal coverage in dense networks. The
// sweep axis is the flattened (size × policy) grid.
func AdaptiveAblation(o Options) (*Table, error) {
	t := &Table{
		ID:    "adaptive",
		Title: "Adaptive (Eq.1) vs fixed (Eq.2) role selection",
		Columns: []string{
			"nodes", "policy", "aggregator frac", "covered both", "round bytes",
		},
	}
	sizes := o.sizes()
	policies := []bool{true, false}
	s := o.sweep("adaptive", len(sizes)*len(policies), 10)
	aggFrac := harness.NewAcc(s)
	covered := harness.NewAcc(s)
	bytes := harness.NewAcc(s)
	err := s.Run(func(tr *harness.T) error {
		net, err := deployment(tr, sizes[tr.Point/len(policies)], tr.Rng.Split(1))
		if err != nil {
			return err
		}
		cfg := o.coreConfig()
		cfg.Tree.Adaptive = policies[tr.Point%len(policies)]
		in, err := world.FromTrial(tr).Core("adaptive", net, cfg, tr.Rng.Split(2).Uint64())
		if err != nil {
			return err
		}
		res, err := in.RunCount()
		if err != nil {
			return err
		}
		aggs := len(in.Trees.Aggregators(0)) + len(in.Trees.Aggregators(1))
		aggFrac.Add(tr, float64(aggs)/float64(net.N()-1))
		covered.Add(tr, in.Trees.CoverageFraction())
		bytes.Add(tr, float64(res.Outcomes[0].Bytes))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi := 0; pi < len(sizes)*len(policies); pi++ {
		policy := "adaptive"
		if !policies[pi%len(policies)] {
			policy = "fixed"
		}
		t.AddRow(
			d(int64(sizes[pi/len(policies)])), policy,
			f(aggFrac.Point(pi).Mean()), f(covered.Point(pi).Mean()), f(bytes.Point(pi).Mean()),
		)
	}
	return t, nil
}
