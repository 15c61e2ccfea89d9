package experiments

import (
	"github.com/ipda-sim/ipda/internal/energy"
	"github.com/ipda-sim/ipda/internal/fault"
	"github.com/ipda-sim/ipda/internal/harness"
	"github.com/ipda-sim/ipda/internal/stream"
	"github.com/ipda-sim/ipda/internal/world"
)

// Streaming-day shape: a 24-hour day of 15-minute metering intervals.
const (
	streamEpochs   = 96
	streamInterval = 900.0 // seconds per epoch
	epochsPerHour  = 4
)

// Stream is the continuous smart-metering pipeline (the paper's
// motivating utility scenario run at utility cadence): one deployment per
// trial serves a full simulated day — 96 fifteen-minute epochs — under
// mild churn with tree repair on, while four standing sliding-window
// queries (interval SUM, hourly AVG and VAR, 3-hour peak MAX) fire on
// staggered schedules. Phase I runs once; every epoch rides the same
// trees, so the amortized cost per reading is the steady-state number a
// metering deployment would bill. Headlines are collection throughput
// (readings per simulated second) and energy per reading including idle
// listening.
func Stream(o Options) (*Table, error) {
	t := &Table{
		ID:    "stream",
		Title: "Continuous smart-metering day (96 epochs, staggered SUM/AVG/VAR/MAX)",
		Columns: []string{
			"nodes", "epochs", "firings", "accept", "readings/s",
			"uJ/reading", "bytes/reading", "repairs", "trials",
		},
		Notes: []string{
			"one deployment per trial serves the whole day: Phase I amortized, mid-day churn repaired in place (CrashRate=0.01/round, RecoverRate=0.3)",
			"queries: SUM per 15 min, AVG + VAR per hour, MAX over 3 h windows, phase-staggered; readings/s is simulated-time throughput",
			"uJ/reading covers radio tx/rx plus idle listening across the 86,400 s day; per-round latencies feed the -obs quantile histogram",
			"one world per trial: tables are byte-identical across -workers and -shards by construction",
		},
	}
	sizes := o.sizes()
	s := o.sweep("stream", len(sizes), 3)
	accept := harness.NewAcc(s)
	firings := harness.NewAcc(s)
	rps := harness.NewAcc(s)
	ujPerReading := harness.NewAcc(s)
	bytesPerReading := harness.NewAcc(s)
	repairs := harness.NewAcc(s)
	err := s.Run(func(tr *harness.T) error {
		arena := world.FromTrial(tr)
		nodes := sizes[tr.Point]
		net, err := deployment(tr, nodes, tr.Rng.Split(1))
		if err != nil {
			return err
		}
		cfg := o.coreConfig()
		cfg.Repair = true
		cfg.Faults = &fault.Config{CrashRate: 0.01, RecoverRate: 0.3, Seed: tr.Rng.Split(2).Uint64()}
		cfg.QTrace = tr.QTrace.Tracer("stream")
		in, err := arena.Core("stream", net, cfg, tr.Rng.Split(3).Uint64())
		if err != nil {
			return err
		}
		meter, err := energy.NewMeter(net.N(), energy.DefaultModel())
		if err != nil {
			return err
		}
		p, err := stream.New(in, stream.Config{
			Epochs:   streamEpochs,
			Interval: streamInterval,
			Queries:  stream.DayQueries(epochsPerHour),
			Readings: func(id, epoch int) int64 {
				return stream.DiurnalLoad(id, float64(epoch)/epochsPerHour)
			},
			Meter: meter,
		})
		if err != nil {
			return err
		}
		var res *stream.Result
		for p.Epoch() < streamEpochs {
			if err := p.Step(); err != nil {
				return err
			}
		}
		res = p.Finish()
		var repaired int64
		for _, q := range res.Queries {
			accept.AddBool(tr, q.Accepted)
			repaired += int64(q.Repaired)
			for _, l := range q.Latencies {
				tr.RecordLatency(l)
			}
		}
		firings.Add(tr, float64(len(res.Queries)))
		rps.Add(tr, res.ReadingsPerSecond())
		ujPerReading.Add(tr, res.JoulesPerReading()*1e6)
		bytesPerReading.Add(tr, float64(res.Bytes)/float64(res.Readings))
		repairs.Add(tr, float64(repaired))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, nodes := range sizes {
		t.AddRow(
			d(int64(nodes)),
			d(streamEpochs),
			f(firings.Point(pi).Mean()),
			f(accept.Point(pi).Mean()),
			f(rps.Point(pi).Mean()),
			f(ujPerReading.Point(pi).Mean()),
			f(bytesPerReading.Point(pi).Mean()),
			f(repairs.Point(pi).Mean()),
			d(int64(firings.Point(pi).N())),
		)
	}
	return t, nil
}
