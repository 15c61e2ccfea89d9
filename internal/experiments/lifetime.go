package experiments

import (
	"github.com/ipda-sim/ipda/internal/energy"
	"github.com/ipda-sim/ipda/internal/harness"
	"github.com/ipda-sim/ipda/internal/world"
)

// battery is a sensor's initial charge in joules, small enough that
// lifetimes come out in simulated hours.
const battery = 2.0

// Lifetime quantifies the energy cost of iPDA's protections — the paper's
// introduction motivates aggregation by network lifetime, and iPDA's
// (2l+1)/2 message overhead translates directly into shorter life. Each
// protocol runs a few COUNT rounds under the first-order radio energy
// model; the table reports per-round drain at the bottleneck node and the
// extrapolated rounds until the first sensor dies.
func Lifetime(o Options) (*Table, error) {
	t := &Table{
		ID:    "lifetime",
		Title: "Network lifetime under the first-order radio model",
		Columns: []string{
			"nodes",
			"mJ/round TAG", "mJ/round iPDA l=2",
			"lifetime TAG", "lifetime iPDA l=2", "lifetime ratio",
		},
		Notes: []string{
			"mJ/round = per-round drain at the bottleneck (max-spend) node, including idle listening",
			"lifetime = extrapolated COUNT rounds until the first sensor depletes a 2 J battery",
		},
	}
	const measureRounds = 3
	sizes := o.sizes()
	s := o.sweep("lifetime", len(sizes), 5)
	tagDrain := harness.NewAcc(s)
	ipdaDrain := harness.NewAcc(s)
	err := s.Run(func(tr *harness.T) error {
		arena := world.FromTrial(tr)
		net, err := deployment(tr, sizes[tr.Point], tr.Rng.Split(1))
		if err != nil {
			return err
		}
		model := energy.DefaultModel()

		// Meters attach after construction: Reset rewires the medium, so a
		// reused instance starts each trial meterless either way.
		tg, err := arena.Tag("lifetime", net, o.tagConfig(), tr.Rng.Split(2).Uint64())
		if err != nil {
			return err
		}
		tagMeter, err := energy.NewMeter(net.N(), model)
		if err != nil {
			return err
		}
		tg.Medium.SetMeter(tagMeter)
		tagStart := tg.Sim.Now()
		for round := 0; round < measureRounds; round++ {
			if _, err := tg.RunCount(); err != nil {
				return err
			}
		}
		tagMeter.ChargeIdle(float64(tg.Sim.Now() - tagStart))

		in, err := arena.Core("lifetime", net, o.coreConfig(), tr.Rng.Split(3).Uint64())
		if err != nil {
			return err
		}
		ipdaMeter, err := energy.NewMeter(net.N(), model)
		if err != nil {
			return err
		}
		in.Medium.SetMeter(ipdaMeter)
		ipdaStart := in.Sim.Now()
		for round := 0; round < measureRounds; round++ {
			if _, err := in.RunCount(); err != nil {
				return err
			}
		}
		ipdaMeter.ChargeIdle(float64(in.Sim.Now() - ipdaStart))

		tagDrain.Add(tr, tagMeter.MaxSpent()/measureRounds)
		ipdaDrain.Add(tr, ipdaMeter.MaxSpent()/measureRounds)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, n := range sizes {
		tagMean := tagDrain.Point(pi).Mean()
		ipdaMean := ipdaDrain.Point(pi).Mean()
		tagLife := battery / tagMean
		ipdaLife := battery / ipdaMean
		t.AddRow(
			d(int64(n)),
			f(tagMean*1e3), f(ipdaMean*1e3),
			f(tagLife), f(ipdaLife), f(tagLife/ipdaLife),
		)
	}
	return t, nil
}
