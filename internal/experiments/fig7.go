package experiments

import (
	"fmt"

	"github.com/ipda-sim/ipda/internal/analysis"
	"github.com/ipda-sim/ipda/internal/harness"
	"github.com/ipda-sim/ipda/internal/world"
)

// Fig7 reproduces Figure 7: total bandwidth consumption of one COUNT
// query (tree construction + aggregation round) as a function of network
// size, for TAG, iPDA l=1 and iPDA l=2. The paper's analysis predicts a
// message-count ratio of (2l+1)/2 over TAG.
func Fig7(o Options) (*Table, error) {
	t := &Table{
		ID:    "fig7",
		Title: "Bandwidth consumption of iPDA vs TAG (Figure 7)",
		Columns: []string{
			"nodes",
			"TAG bytes", "iPDA l=1 bytes", "iPDA l=2 bytes",
			"frames/node TAG", "frames/node l=1", "frames/node l=2",
			"ratio l=1", "ratio l=2",
		},
		Notes: []string{
			"bytes include MAC ACK traffic; frames/node counts protocol frames only",
			fmt.Sprintf("analysis (Sec. IV-A.2) predicts frame ratios %.2f (l=1) and %.2f (l=2)",
				analysis.OverheadRatio(1), analysis.OverheadRatio(2)),
		},
	}
	if o.Coalesce {
		// Coalesced framing rides in extra columns from dedicated runs on
		// fresh rng splits: the base columns above keep their exact bytes.
		t.Columns = append(t.Columns,
			"l=2C bytes", "frames/node l=2C", "ratio l=2C")
		t.Notes = append(t.Notes,
			"l=2C columns re-run iPDA l=2 with -coalesce: one multi-slice frame per sender per round (anchored ACK, promiscuous pickup)")
	}
	sizes := o.sizes()
	s := o.sweep("fig7", len(sizes), 10)
	tagBytes := harness.NewAcc(s)
	tagFrames := harness.NewAcc(s)
	l1Bytes := harness.NewAcc(s)
	l1Frames := harness.NewAcc(s)
	l2Bytes := harness.NewAcc(s)
	l2Frames := harness.NewAcc(s)
	l2cBytes := harness.NewAcc(s)
	l2cFrames := harness.NewAcc(s)
	err := s.Run(func(tr *harness.T) error {
		arena := world.FromTrial(tr)
		net, err := deployment(tr, sizes[tr.Point], tr.Rng.Split(1))
		if err != nil {
			return err
		}
		// TAG.
		tcfg := o.tagConfig()
		tcfg.QTrace = tr.QTrace.Tracer("tag")
		tg, err := arena.Tag("fig7", net, tcfg, tr.Rng.Split(2).Uint64())
		if err != nil {
			return err
		}
		tres, err := tg.RunCount()
		if err != nil {
			return err
		}
		tr.RecordLatency(tres.Outcomes[0].Latency)
		// Bytes are every frame on the air, tree construction and round
		// included; frames are the protocol's own (the MAC's Sent excludes
		// ACKs).
		tagBytes.Add(tr, float64(tg.Medium.TotalBytes()))
		tagFrames.Add(tr, float64(tg.MAC.Stats().Sent))
		// iPDA l=1 and l=2.
		for _, l := range []int{1, 2} {
			cfg := o.coreConfig()
			cfg.Slices = l
			slot := "fig7/l1"
			qslot := "l1"
			if l == 2 {
				slot = "fig7/l2"
				qslot = "l2"
			}
			cfg.QTrace = tr.QTrace.Tracer(qslot)
			in, err := arena.Core(slot, net, cfg, tr.Rng.Split(uint64(10+l)).Uint64())
			if err != nil {
				return err
			}
			res, err := in.RunCount()
			if err != nil {
				return err
			}
			tr.RecordLatency(res.Outcomes[0].Latency)
			bytes, frames := l1Bytes, l1Frames
			if l == 2 {
				bytes, frames = l2Bytes, l2Frames
			}
			bytes.Add(tr, float64(in.Medium.TotalBytes()))
			frames.Add(tr, float64(in.MAC.Stats().Sent))
		}
		if o.Coalesce {
			cfg := o.coreConfig()
			cfg.Slices = 2
			cfg.Coalesce = true
			cfg.QTrace = tr.QTrace.Tracer("l2c")
			in, err := arena.Core("fig7/l2c", net, cfg, tr.Rng.Split(22).Uint64())
			if err != nil {
				return err
			}
			res, err := in.RunCount()
			if err != nil {
				return err
			}
			tr.RecordLatency(res.Outcomes[0].Latency)
			l2cBytes.Add(tr, float64(in.Medium.TotalBytes()))
			l2cFrames.Add(tr, float64(in.MAC.Stats().Sent))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, n := range sizes {
		nodes := float64(n + 1)
		ft := tagFrames.Point(pi).Mean() / nodes
		f1 := l1Frames.Point(pi).Mean() / nodes
		f2 := l2Frames.Point(pi).Mean() / nodes
		cells := []string{
			d(int64(n)),
			f(tagBytes.Point(pi).Mean()), f(l1Bytes.Point(pi).Mean()), f(l2Bytes.Point(pi).Mean()),
			f(ft), f(f1), f(f2),
			f(f1 / ft), f(f2 / ft),
		}
		if o.Coalesce {
			f2c := l2cFrames.Point(pi).Mean() / nodes
			cells = append(cells,
				f(l2cBytes.Point(pi).Mean()), f(f2c), f(f2c/ft))
		}
		t.AddRow(cells...)
	}
	return t, nil
}
