package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/ipda-sim/ipda/internal/aggregate"
	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/energy"
	"github.com/ipda-sim/ipda/internal/fault"
	"github.com/ipda-sim/ipda/internal/harness"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/shard"
	"github.com/ipda-sim/ipda/internal/stream"
	"github.com/ipda-sim/ipda/internal/tag"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/world"
)

// A workload is one closed-loop load: each operation starts when the
// previous one returns. Every input derives from the seed.
type workload struct {
	name string
	// tail is the percentile reported as op_tail_ms: the highest that
	// leaves at least ten samples beyond it in a default-length run.
	tail float64
	// prefix is the number of leading operations whose simulated outputs
	// feed the sim_* metrics and sim_digest. The loop always completes it,
	// so those values are a function of the seed alone, whatever the host.
	prefix int
	// window is the consecutive operations per window of the quiet-window
	// statistics (see quiet); each spans about 0.2 s on a 2-CPU machine.
	window int
	setup  func(c *config, tr *tracer) (runner, error)
}

// A runner executes one workload's operations after set-up.
type runner interface {
	// next runs the next operation (for fig7-sweep, the next batch of
	// trials) and reports it to rec. It returns an error only when the
	// run cannot go on; a failed operation is reported through rec.
	next(rec *recorder) error
	// flush reports simulated outputs still pending when the loop stops.
	flush(rec *recorder)
}

// layerReporter is implemented by runners that measure per-layer values
// only they can see.
type layerReporter interface {
	layers(v map[string]float64)
}

var workloads = []*workload{
	{name: "steady-rounds", tail: 0.99, prefix: 1000, window: 64, setup: setupSteady},
	{name: "fig7-sweep", tail: 0.99, prefix: 400, window: 4 * fig7Batch, setup: setupFig7},
	{name: "metering-month", tail: 0.99, prefix: meterEpochs, window: 32, setup: setupMetering},
	{name: "scale-10k", tail: 0.95, prefix: 40, window: 2, setup: setupScale},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// checkRounds folds a query's round outcomes into o.
func checkRounds(o *opOut, th int64, outs []core.RoundOutcome, tb *spanBuf) {
	for _, r := range outs {
		o.checked++
		if r.Diff() <= th {
			o.accepted++
		}
		o.lat = append(o.lat, r.Latency)
		o.words = append(o.words, uint64(r.Red), uint64(r.Blue), uint64(r.Participants), r.Frames)
		tb.faults(r.Dead, r.Skipped, r.Repaired)
	}
}

// steady-rounds: one paper deployment (N=400, CSMA, l=2, Th=5) answering
// COUNT and SUM queries alternately. The round datapath — eventsim, radio,
// mac, linksec, packet, core — does nearly all the work; set-up is one
// deployment, one Phase I and the warm-up queries.

const (
	steadyNodes  = 400
	steadyWarmup = 50
)

type steady struct {
	in       *core.Instance
	readings []int64
	count    int   // oracle: len(Participants())
	sum      int64 // oracle: Σ readings over Participants()
	query    int
	tb       *spanBuf
	out      opOut
}

func setupSteady(c *config, tr *tracer) (runner, error) {
	root := rng.New(c.seed).SplitString("steady-rounds")
	s := &steady{tb: tr.buf()}
	sp := s.tb.begin(spanDeploy)
	net, err := topology.Random(topology.PaperConfig(steadyNodes), root.Split(1))
	s.tb.end(sp)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	cfg := core.DefaultConfig()
	cfg.Obs = s.tb.obsSink()
	sp = s.tb.begin(spanPhase1)
	s.in, err = core.New(net, cfg, root.Split(2).Uint64())
	if err != nil {
		s.tb.end(sp)
		return nil, fmt.Errorf("phase I: %w", err)
	}
	s.tb.endSpan(sp, instanceCounts(s.in))
	r := root.Split(3)
	s.readings = make([]int64, net.N())
	for i := 1; i < net.N(); i++ {
		s.readings[i] = 1 + r.Int64n(100)
	}
	for _, p := range s.in.Participants() {
		s.count++
		s.sum += s.readings[p]
	}
	for range steadyWarmup {
		if o := s.run(); o.err != nil {
			return nil, fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return s, nil
}

// run answers the next query and checks it: every accepted COUNT must equal
// the participant count and every accepted SUM the participants' readings.
func (s *steady) run() *opOut {
	o := &s.out
	*o = opOut{lat: o.lat[:0], words: o.words[:0]}
	c0 := instanceCounts(s.in)
	sp := s.tb.begin(spanCoreRun)
	var res *core.Result
	var err error
	want := int64(s.count)
	if s.query%2 == 0 {
		res, err = s.in.RunCount()
	} else {
		res, err = s.in.RunSum(s.readings)
		want = s.sum
	}
	d := instanceCounts(s.in).minus(c0)
	s.tb.endRound(sp, d)
	o.bytes = d[cBytes]
	q := s.query
	s.query++
	if err != nil {
		o.err = fmt.Errorf("query %d: %w", q, err)
		return o
	}
	checkRounds(o, s.in.Cfg.Threshold, res.Outcomes, s.tb)
	o.words = append(o.words, math.Float64bits(res.Value))
	if res.Accepted && res.Value != float64(want) {
		o.err = fmt.Errorf("query %d (%v): accepted value %v, oracle %d", q, res.Spec.Kind, res.Value, want)
	}
	return o
}

func (s *steady) next(rec *recorder) error {
	t := rec.start(s.tb)
	o := s.run()
	rec.stop(s.tb, t)
	rec.sim(o)
	return nil
}

func (s *steady) flush(*recorder) {}

// fig7-sweep: the trial shape of Figure 7 and every ipda-bench table that
// shares it, run through harness.Sweep on per-worker arenas. Each trial
// deploys a fresh network and builds and runs a TAG COUNT and iPDA l=1 and
// l=2 COUNTs, so deployment, Phase I, arena Reset and harness scheduling
// are on the path; steady-rounds bypasses all of them.

var (
	fig7Sizes = [...]int{200, 300, 400, 500, 600}
	fig7Slots = [...]string{1: "fig7/l1", 2: "fig7/l2"}
)

// One sweep batch runs fig7Trials trials per size; the loop checks its
// deadline between batches.
const (
	fig7Trials = 2
	fig7Batch  = len(fig7Sizes) * fig7Trials
)

type fig7 struct {
	c       *config
	root    *rng.Stream
	batch   uint64
	workers []*fig7Worker
	taken   atomic.Int32 // workers handed out in the current batch
	outs    []fig7Out
	tb      *spanBuf
}

type fig7Worker struct {
	arena *world.Arena
	tb    *spanBuf
}

type fig7Out struct {
	ns, end int64
	out     opOut
}

func setupFig7(c *config, tr *tracer) (runner, error) {
	f := &fig7{
		c:    c,
		root: rng.New(c.seed).SplitString("fig7-sweep"),
		outs: make([]fig7Out, fig7Batch),
		tb:   tr.buf(),
	}
	for range c.workers {
		f.workers = append(f.workers, &fig7Worker{arena: world.New(), tb: tr.buf()})
	}
	// Batch 0 warms the arenas; timed batches start at 1.
	if err := f.sweep(-1, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, o := range f.outs {
		if o.out.err != nil {
			return nil, fmt.Errorf("warm-up: %w", o.out.err)
		}
	}
	return f, nil
}

// sweep runs one batch of trials. first is the operation index of its
// first trial, or -1 for the set-up batch, whose trials are not operations;
// trial end times are read on rec's loop clock.
func (f *fig7) sweep(first int, rec *recorder) error {
	f.taken.Store(0)
	s := harness.Sweep{
		ID:          "fig7-sweep",
		Seed:        f.root.Split(f.batch).Uint64(),
		Points:      len(fig7Sizes),
		Trials:      fig7Trials,
		Workers:     f.c.workers,
		WorkerState: func() any { return f.workers[f.taken.Add(1)-1] },
	}
	f.batch++
	sp := f.tb.begin(spanSweep)
	err := s.Run(func(t *harness.T) error {
		w := t.State.(*fig7Worker)
		i := t.Point*fig7Trials + t.Trial
		sp := int32(-1)
		if first >= 0 {
			w.tb.setOp(first + i)
			sp = w.tb.begin(spanOp)
		}
		start := time.Now()
		w.trial(t, fig7Sizes[t.Point], &f.outs[i].out)
		if first >= 0 {
			now := time.Now()
			f.outs[i].ns, f.outs[i].end = now.Sub(start).Nanoseconds(), rec.since(now)
			w.tb.end(sp)
		}
		return nil
	})
	f.tb.end(sp)
	return err
}

func (f *fig7) next(rec *recorder) error {
	first := len(rec.ns)
	f.tb.setOp(first)
	if err := f.sweep(first, rec); err != nil {
		// A trial panicked; the harness cancelled the rest of the batch.
		end := rec.since(time.Now())
		for range f.outs {
			rec.time(0, end)
			rec.sim(&opOut{err: err})
		}
		return nil
	}
	for i := range f.outs {
		rec.time(f.outs[i].ns, f.outs[i].end)
		rec.sim(&f.outs[i].out)
	}
	return nil
}

func (f *fig7) flush(*recorder) {}

// trial mirrors one Figure 7 trial, with the same rng splits as
// experiments.Fig7, and reports into o. Every accepted iPDA COUNT must
// equal the instance's participant count.
func (w *fig7Worker) trial(t *harness.T, n int, o *opOut) {
	*o = opOut{lat: o.lat[:0], words: o.words[:0]}
	sp := w.tb.begin(spanDeploy)
	net, err := w.arena.Deploy(topology.PaperConfig(n), t.Rng.Split(1))
	w.tb.end(sp)
	if err != nil {
		o.err = fmt.Errorf("n=%d deploy: %w", n, err)
		return
	}
	sp = w.tb.begin(spanTag)
	tg, err := w.arena.Tag("fig7", net, tag.DefaultConfig(), t.Rng.Split(2).Uint64())
	var tres *tag.Result
	if err == nil {
		tres, err = tg.RunCount()
	}
	w.tb.end(sp)
	if err != nil {
		o.err = fmt.Errorf("n=%d tag: %w", n, err)
		return
	}
	o.bytes += tg.Medium.TotalBytes()
	o.words = append(o.words, tg.Medium.TotalBytes(), math.Float64bits(tres.Value))
	for _, l := range []int{1, 2} {
		cfg := core.DefaultConfig()
		cfg.Slices = l
		cfg.Obs = w.tb.obsSink()
		sp = w.tb.begin(spanPhase1)
		in, err := w.arena.Core(fig7Slots[l], net, cfg, t.Rng.Split(uint64(10+l)).Uint64())
		if err != nil {
			w.tb.end(sp)
			o.err = fmt.Errorf("n=%d l=%d phase I: %w", n, l, err)
			return
		}
		w.tb.endSpan(sp, instanceCounts(in))
		c0 := instanceCounts(in)
		sp = w.tb.begin(spanCoreRun)
		res, err := in.RunCount()
		w.tb.endRound(sp, instanceCounts(in).minus(c0))
		if err != nil {
			o.err = fmt.Errorf("n=%d l=%d count: %w", n, l, err)
			return
		}
		checkRounds(o, cfg.Threshold, res.Outcomes, w.tb)
		o.bytes += in.Medium.TotalBytes()
		o.words = append(o.words, math.Float64bits(res.Value))
		if want := len(in.Participants()); res.Accepted && res.Value != float64(want) {
			o.err = fmt.Errorf("n=%d l=%d: accepted COUNT %v, oracle %d", n, l, res.Value, want)
			return
		}
	}
}

// metering-month: one N=400 deployment under churn (CrashRate 0.01,
// RecoverRate 0.3, repair on) serving back-to-back eight-day pipelines of
// fifteen-minute epochs with the smart-metering day's standing queries and
// an energy meter attached. Multi-round kinds, dead nodes, per-round
// repair, metered tx/rx and idle advance are on the path; a change that
// speeds clean rounds but slows churn or repair shows here.

const (
	meterNodes    = 400
	meterPerHour  = 4
	meterPerDay   = 24 * meterPerHour
	meterEpochs   = 8 * meterPerDay // one pipeline
	meterWarmup   = 16              // the first peak-3h firing is epoch 15
	meterInterval = 900.0
)

type metering struct {
	in      *core.Instance
	queries []stream.Query
	tb      *spanBuf

	// The open pipeline.
	p       *stream.Pipeline
	t0      float64  // simulated start of its epoch 0
	rounds0 uint64   // instance rounds when it opened
	bytes   []uint64 // radio bytes of each epoch stepped
	stepErr error

	epochs   int
	firings  int
	overruns int
	uj       float64 // µJ per reading of the first pipeline
	out      opOut
}

func setupMetering(c *config, tr *tracer) (runner, error) {
	root := rng.New(c.seed).SplitString("metering-month")
	m := &metering{queries: stream.DayQueries(meterPerHour), tb: tr.buf()}
	sp := m.tb.begin(spanDeploy)
	net, err := topology.Random(topology.PaperConfig(meterNodes), root.Split(1))
	m.tb.end(sp)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	cfg := core.DefaultConfig()
	cfg.Repair = true
	cfg.Faults = &fault.Config{CrashRate: 0.01, RecoverRate: 0.3, Seed: root.Split(2).Uint64()}
	cfg.Obs = m.tb.obsSink()
	sp = m.tb.begin(spanPhase1)
	m.in, err = core.New(net, cfg, root.Split(3).Uint64())
	if err != nil {
		m.tb.end(sp)
		return nil, fmt.Errorf("phase I: %w", err)
	}
	m.tb.endSpan(sp, instanceCounts(m.in))
	// The warm-up pipeline runs until every query kind has fired once.
	if err := m.open(meterWarmup); err != nil {
		return nil, err
	}
	for m.p.Epoch() < meterWarmup {
		if err := m.p.Step(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	m.p.Finish()
	if err := m.open(meterEpochs); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *metering) open(epochs int) error {
	meter, err := energy.NewMeter(m.in.Net.N(), energy.DefaultModel())
	if err != nil {
		return err
	}
	m.t0, m.rounds0 = float64(m.in.Sim.Now()), m.in.Rounds()
	m.bytes = m.bytes[:0]
	sp := m.tb.begin(spanStreamNew)
	m.p, err = stream.New(m.in, stream.Config{
		Epochs:   epochs,
		Interval: meterInterval,
		Queries:  m.queries,
		Readings: func(id, epoch int) int64 {
			// DiurnalLoad is not periodic past 24 h, hence the modulo.
			return stream.DiurnalLoad(id, float64(epoch%meterPerDay)/meterPerHour)
		},
		Meter: meter,
	})
	m.tb.end(sp)
	return err
}

func (m *metering) next(rec *recorder) error {
	e := m.p.Epoch()
	if float64(m.in.Sim.Now()) > m.t0+float64(e)*meterInterval {
		m.overruns++
	}
	c0 := instanceCounts(m.in)
	t := rec.start(m.tb)
	sp := m.tb.begin(spanStep)
	err := m.p.Step()
	d := instanceCounts(m.in).minus(c0)
	m.tb.endRound(sp, d)
	rec.stop(m.tb, t)
	m.bytes = append(m.bytes, d[cBytes])
	if err != nil {
		m.stepErr = fmt.Errorf("epoch %d: %w", e, err)
	}
	if err != nil || m.p.Epoch() == meterEpochs {
		m.flush(rec)
		return m.open(meterEpochs)
	}
	return nil
}

// roundsPerFiring is the additive rounds one firing of each kind runs: the
// value rounds, plus a COUNT round for the kinds whose result divides by
// the participant count.
var roundsPerFiring = map[aggregate.Kind]int{
	aggregate.Sum: 1, aggregate.Max: 1, aggregate.Average: 2, aggregate.Variance: 3,
}

// flush finishes the open pipeline and reports its epochs. The oracle is
// the schedule recomputed from each query's Period, Phase and Window: the
// firings must match it epoch by epoch, the instance must have run exactly
// the rounds those firings need, and every meter must have read once per
// epoch.
func (m *metering) flush(rec *recorder) {
	stepped := len(m.bytes)
	if stepped == 0 {
		return
	}
	sp := m.tb.begin(spanFinish)
	res := m.p.Finish()
	m.tb.end(sp)
	if m.epochs == 0 && stepped == meterEpochs {
		m.uj = res.JoulesPerReading() * 1e6
	}
	m.epochs += stepped
	m.firings += len(res.Queries)

	wantRounds := 0
	k := 0 // next firing in res.Queries
	for e := 0; e < stepped; e++ {
		o := &m.out
		*o = opOut{bytes: m.bytes[e], lat: o.lat[:0], words: o.words[:0]}
		for qi, q := range m.queries {
			if e < q.Phase || (e-q.Phase)%q.Period != 0 || e+1 < q.Window {
				continue
			}
			wantRounds += roundsPerFiring[q.Kind]
			if k >= len(res.Queries) || res.Queries[k].Epoch != e || res.Queries[k].Query != qi {
				if o.err == nil {
					o.err = fmt.Errorf("epoch %d: query %s scheduled but did not fire", e, q.Name)
				}
				continue
			}
			f := res.Queries[k]
			k++
			o.checked++
			if f.Accepted {
				o.accepted++
			}
			o.lat = append(o.lat, f.Latencies...)
			o.words = append(o.words, uint64(qi), math.Float64bits(f.Value), uint64(f.Participants),
				uint64(f.Dead), uint64(f.Skipped), uint64(f.Repaired), f.Bytes)
			m.tb.faults(f.Dead, f.Skipped, f.Repaired)
		}
		if k < len(res.Queries) && res.Queries[k].Epoch == e && o.err == nil {
			o.err = fmt.Errorf("epoch %d: query %d fired off schedule", e, res.Queries[k].Query)
		}
		if e == stepped-1 && o.err == nil {
			switch {
			case m.stepErr != nil:
				o.err = m.stepErr
			case m.in.Rounds()-m.rounds0 != uint64(wantRounds):
				o.err = fmt.Errorf("pipeline ran %d rounds, schedule needs %d", m.in.Rounds()-m.rounds0, wantRounds)
			case res.Readings != int64(m.in.Net.N()-1)*int64(stepped):
				o.err = fmt.Errorf("pipeline took %d readings, want %d", res.Readings, (m.in.Net.N()-1)*stepped)
			}
		}
		rec.sim(o)
	}
	m.bytes = m.bytes[:0]
	m.stepErr = nil
}

func (m *metering) layers(v map[string]float64) {
	if m.epochs > 0 {
		v["stream.firings_per_epoch"] = float64(m.firings) / float64(m.epochs)
	}
	v["stream.overrun_epochs"] = float64(m.overruns)
	v["sim.uj_per_reading"] = m.uj
}

// scale-10k: N=10,000 at the paper's density, partitioned into cluster
// regions and run through shard.NewPlan and shard.RunHier on two shard
// goroutines. The only workload with partitioning, induced subnets,
// per-region Phase I and intra-trial parallelism on the path.

const scaleNodes = 10000

type scale struct {
	c       *config
	root    *rng.Stream
	arena   *world.Arena
	tb      *spanBuf
	trials  int
	regions int
	out     opOut
}

// scaleConfig keeps the paper's n=400 density: the 400 m side grows with
// sqrt(n).
func scaleConfig(nodes int) topology.Config {
	side := 400 * math.Sqrt(float64(nodes+1)/401)
	return topology.Config{Nodes: nodes, FieldSide: side, Range: 50}
}

func setupScale(c *config, tr *tracer) (runner, error) {
	s := &scale{c: c, root: rng.New(c.seed).SplitString("scale-10k"), arena: world.New(), tb: tr.buf()}
	// Trial 0 warms the arena and its per-shard sub-arenas.
	if o := s.trial(0); o.err != nil {
		return nil, fmt.Errorf("warm-up: %w", o.err)
	}
	s.trials, s.regions = 0, 0
	return s, nil
}

// trial runs one hierarchical COUNT over a fresh deployment. Neither tree
// can count more nodes than sliced, and an accepted query must satisfy the
// backbone's slack, |Red−Blue| ≤ Regions·Th.
func (s *scale) trial(label uint64) *opOut {
	o := &s.out
	*o = opOut{words: o.words[:0]}
	r := s.root.Split(label)
	sp := s.tb.begin(spanDeploy)
	net, err := s.arena.Deploy(scaleConfig(scaleNodes), r.Split(1))
	s.tb.end(sp)
	if err != nil {
		o.err = fmt.Errorf("deploy: %w", err)
		return o
	}
	sp = s.tb.begin(spanPlan)
	plan := shard.NewPlan(net, shard.DefaultRegions(scaleNodes))
	s.tb.end(sp)
	cfg := core.DefaultConfig()
	sp = s.tb.begin(spanRunHier)
	out, err := shard.RunHier(plan, cfg, r.Split(2), s.c.shards, s.arena, nil)
	s.tb.end(sp)
	if err != nil {
		o.err = fmt.Errorf("trial %d: %w", label, err)
		return o
	}
	s.trials++
	s.regions += out.Regions
	o.bytes, o.checked, o.accepted = out.Bytes, out.Regions, out.Accepted
	o.words = append(o.words, uint64(out.Regions), uint64(out.Participants), uint64(out.Red),
		uint64(out.Blue), uint64(out.Accepted), out.Frames)
	if out.Red > int64(out.Participants) || out.Blue > int64(out.Participants) ||
		out.AllAccepted && out.Diff() > int64(out.Regions)*cfg.Threshold {
		o.err = fmt.Errorf("trial %d: red=%d blue=%d (accepted %v) over %d regions and %d participants",
			label, out.Red, out.Blue, out.AllAccepted, out.Regions, out.Participants)
	}
	return o
}

func (s *scale) next(rec *recorder) error {
	t := rec.start(s.tb)
	o := s.trial(uint64(len(rec.ns)) + 1)
	rec.stop(s.tb, t)
	rec.sim(o)
	return nil
}

func (s *scale) flush(*recorder) {}

func (s *scale) layers(v map[string]float64) {
	if s.trials > 0 {
		v["shard.regions"] = float64(s.regions) / float64(s.trials)
	}
}
