package experiments

import (
	"github.com/ipda-sim/ipda/internal/harness"
	"github.com/ipda-sim/ipda/internal/world"
)

// Pollution reproduces the integrity claim of Sections III-D and IV-A.4:
// a single compromised aggregator shifting the intermediate result is
// detected (round rejected), while attack-free rounds are accepted, for
// deltas from subtle to blatant.
func Pollution(o Options) (*Table, error) {
	t := &Table{
		ID:    "pollution",
		Title: "Pollution-attack detection (Sec. III-D / IV-A.4)",
		Columns: []string{
			"attack delta", "detected", "false reject (no attack)", "trials",
		},
		Notes: []string{
			"COUNT aggregation, N=400, Th=5; attacker is a random aggregator",
		},
	}
	deltas := []int64{0, 6, 10, 50, 1000}
	s := o.sweep("pollution", len(deltas), 20)
	detected := harness.NewAcc(s)
	err := s.Run(func(tr *harness.T) error {
		delta := deltas[tr.Point]
		net, err := deployment(tr, 400, tr.Rng.Split(1))
		if err != nil {
			return err
		}
		in, err := world.FromTrial(tr).Core("pollution", net, o.coreConfig(), tr.Rng.Split(2).Uint64())
		if err != nil {
			return err
		}
		if delta != 0 {
			aggs := append(in.Trees.Aggregators(0), in.Trees.Aggregators(1)...)
			if len(aggs) == 0 {
				return nil // no aggregator to compromise: skip the trial
			}
			in.Pollute(aggs[tr.Rng.Intn(len(aggs))], delta)
		}
		res, err := in.RunCount()
		if err != nil {
			return err
		}
		detected.AddBool(tr, !res.Accepted)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, delta := range deltas {
		sm := detected.Point(pi)
		if delta == 0 {
			t.AddRow("none", "-", f(sm.Mean()), d(int64(sm.N())))
		} else {
			t.AddRow(d(delta), f(sm.Mean()), "-", d(int64(sm.N())))
		}
	}
	return t, nil
}

// ThSweep measures the acceptance-threshold trade-off the paper's Section
// IV-B.1 uses to justify Th = 5: the false-reject rate without attack and
// the miss rate under a small (delta = 10) pollution, across thresholds.
func ThSweep(o Options) (*Table, error) {
	t := &Table{
		ID:      "th",
		Title:   "Acceptance threshold Th selection (Sec. IV-B.1)",
		Columns: []string{"Th", "false reject (no attack)", "missed detection (delta=10)"},
		Notes: []string{
			"COUNT aggregation, N=400, congested 0.1 s slicing window (losses occur, as in the paper's ns-2 runs)",
			"small Th rejects lossy-but-honest rounds; large Th misses subtle pollution — Th=5 balances both",
		},
	}
	ths := []int64{0, 2, 5, 10, 20, 50}
	s := o.sweep("th", len(ths), 20)
	falseRej := harness.NewAcc(s)
	miss := harness.NewAcc(s)
	err := s.Run(func(tr *harness.T) error {
		arena := world.FromTrial(tr)
		net, err := deployment(tr, 400, tr.Rng.Split(1))
		if err != nil {
			return err
		}
		cfg := o.coreConfig()
		cfg.Threshold = ths[tr.Point]
		cfg.SliceWindow = 0.1 // congested: honest losses happen
		// Clean round.
		in, err := arena.Core("th/clean", net, cfg, tr.Rng.Split(2).Uint64())
		if err != nil {
			return err
		}
		clean, err := in.RunCount()
		if err != nil {
			return err
		}
		// Attacked round on a fresh instance (same topology).
		in2, err := arena.Core("th/attacked", net, cfg, tr.Rng.Split(3).Uint64())
		if err != nil {
			return err
		}
		aggs := append(in2.Trees.Aggregators(0), in2.Trees.Aggregators(1)...)
		if len(aggs) == 0 {
			return nil // no aggregator to compromise: skip the trial
		}
		in2.Pollute(aggs[tr.Rng.Intn(len(aggs))], 10)
		dirty, err := in2.RunCount()
		if err != nil {
			return err
		}
		falseRej.AddBool(tr, !clean.Accepted)
		miss.AddBool(tr, dirty.Accepted)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, th := range ths {
		t.AddRow(d(th), f(falseRej.Point(pi).Mean()), f(miss.Point(pi).Mean()))
	}
	return t, nil
}
