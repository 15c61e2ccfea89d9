package experiments

import (
	"fmt"

	"github.com/ipda-sim/ipda/internal/analysis"
	"github.com/ipda-sim/ipda/internal/harness"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/world"
)

// CoverageBound reproduces the Section IV-A.1 analysis: the Equation (10)
// Markov bound and the expected covered fraction against the measured
// coverage of deployed trees (non-adaptive roles, pr = pb = 0.5, matching
// the analysis' assumption of random coloring).
func CoverageBound(o Options) (*Table, error) {
	t := &Table{
		ID:    "coverage",
		Title: "Coverage of aggregation trees: theory vs simulation (Sec. IV-A.1)",
		Columns: []string{
			"nodes", "avg degree",
			"Eq.(10) bound", "expected covered", "measured covered",
		},
		Notes: []string{
			"Eq.(10) can be vacuous (negative) at low density; expected covered = 1 - mean p_i",
			fmt.Sprintf("paper's d-regular example (N=1000, d=10): %s (matches 1 - N·2^{-2d}; Eq.(10) itself is vacuous there)",
				f(analysis.PaperRegularExample(1000, 10))),
		},
	}
	sizes := o.sizes()
	s := o.sweep("coverage", len(sizes), 10)
	degree := harness.NewAcc(s)
	bound := harness.NewAcc(s)
	expected := harness.NewAcc(s)
	measured := harness.NewAcc(s)
	err := s.Run(func(tr *harness.T) error {
		net, err := deployment(tr, sizes[tr.Point], tr.Rng.Split(1))
		if err != nil {
			return err
		}
		degrees := make([]int, 0, net.N()-1)
		for i := 1; i < net.N(); i++ {
			degrees = append(degrees, net.Degree(topology.NodeID(i)))
		}
		cfg := o.coreConfig()
		cfg.Tree.Adaptive = false // pr = pb = 0.5, the analysis' model
		in, err := world.FromTrial(tr).Core("coverage", net, cfg, tr.Rng.Split(2).Uint64())
		if err != nil {
			return err
		}
		degree.Add(tr, net.AvgDegree())
		bound.Add(tr, analysis.CoverageLowerBound(degrees, 0.5, 0.5))
		expected.Add(tr, analysis.ExpectedFullyCoveredFraction(degrees, 0.5, 0.5))
		measured.Add(tr, in.Trees.CoverageFraction())
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, n := range sizes {
		t.AddRow(
			d(int64(n)), f(degree.Point(pi).Mean()),
			f(bound.Point(pi).Mean()), f(expected.Point(pi).Mean()), f(measured.Point(pi).Mean()),
		)
	}
	return t, nil
}

// Overhead reproduces the Section IV-A.2 message analysis (Figure 4): the
// per-node message counts of TAG (2) and iPDA (2l+1) and the resulting
// (2l+1)/2 ratio for l ∈ {1, 2, 3}. The quantities are closed-form; the
// harness still hosts the sweep so the experiment shares the progress and
// cancellation plumbing.
func Overhead(o Options) (*Table, error) {
	t := &Table{
		ID:      "overhead",
		Title:   "Per-node message counts and overhead ratio (Sec. IV-A.2, Figure 4)",
		Columns: []string{"l", "TAG msgs/node", "iPDA msgs/node", "ratio (2l+1)/2"},
	}
	ls := []int{1, 2, 3}
	s := o.fixedSweep("overhead", len(ls), 1)
	tagMsgs := harness.NewAcc(s)
	ipdaMsgs := harness.NewAcc(s)
	err := s.Run(func(tr *harness.T) error {
		tg, ip := analysis.MessagesPerNode(ls[tr.Point])
		tagMsgs.Add(tr, float64(tg))
		ipdaMsgs.Add(tr, float64(ip))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, l := range ls {
		t.AddRow(
			d(int64(l)),
			d(int64(tagMsgs.Point(pi).Mean())),
			d(int64(ipdaMsgs.Point(pi).Mean())),
			f(analysis.OverheadRatio(l)),
		)
	}
	return t, nil
}
