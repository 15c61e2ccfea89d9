package experiments

import (
	"github.com/ipda-sim/ipda/internal/attack"
	"github.com/ipda-sim/ipda/internal/harness"
	"github.com/ipda-sim/ipda/internal/world"
)

// LAblation sweeps the slice count l — the paper's central tuning knob
// ("we recommend l = 2 in iPDA") — and reports the three quantities it
// trades off in one table: empirical disclosure under a p_x = 0.1
// eavesdropper, per-round traffic, and participation (larger l needs more
// aggregator neighbors, Sec. IV-B.3 factor (b)).
func LAblation(o Options) (*Table, error) {
	t := &Table{
		ID:    "lablation",
		Title: "Slice count l: privacy vs overhead vs participation (Sec. IV-A.3)",
		Columns: []string{
			"l", "disclosed (px=0.1)", "round bytes", "participate", "msgs/node (2l+1)",
		},
		Notes: []string{
			"N=400 deployments; the paper recommends l=2",
		},
	}
	ls := []int{1, 2, 3, 4}
	s := o.sweep("lablation", len(ls), 8)
	disclosed := harness.NewAcc(s)
	bytes := harness.NewAcc(s)
	part := harness.NewAcc(s)
	err := s.Run(func(tr *harness.T) error {
		l := ls[tr.Point]
		net, err := deployment(tr, 400, tr.Rng.Split(1))
		if err != nil {
			return err
		}
		cfg := o.coreConfig()
		cfg.Slices = l
		in, err := world.FromTrial(tr).Core("lablation", net, cfg, tr.Rng.Split(2).Uint64())
		if err != nil {
			return err
		}
		eav := attack.NewEavesdropper(0.1, tr.Rng.Split(3))
		eav.Attach(in)
		res, err := in.RunCount()
		if err != nil {
			return err
		}
		disclosed.Add(tr, eav.DiscloseRate(in.Participants()))
		bytes.Add(tr, float64(res.Outcomes[0].Bytes))
		part.Add(tr, in.Trees.ParticipationFraction(l))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, l := range ls {
		t.AddRow(
			d(int64(l)),
			f(disclosed.Point(pi).Mean()),
			f(bytes.Point(pi).Mean()),
			f(part.Point(pi).Mean()),
			d(int64(2*l+1)),
		)
	}
	return t, nil
}
