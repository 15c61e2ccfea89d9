// Package stream runs a long-lived iPDA deployment through a continuous
// sequence of epochs: the utility-scale smart-metering workload that
// motivates the paper (Section I). One network instance — Phase I trees
// built once — serves the whole run; every epoch each meter produces a
// fresh reading, and a set of standing sliding-window queries (SUM, AVG,
// VAR, MIN/MAX) fires on staggered schedules against the meters' buffered
// windows. Amortizing Phase I across epochs is what makes the runtime
// repair path load-bearing: mid-run churn must be repaired around, not
// rebuilt over, or the whole pipeline stalls.
//
// Concurrency model: queries whose schedules land on the same epoch are
// injected back-to-back and serialize on the shared channel, exactly as a
// single-collector utility network would schedule them — the simulated
// clock, not wall clock, carries their latency. The cumulative round
// counter spans the entire run, so the core's key-era rotation (see
// core.Instance) is exercised for real once a pipeline passes 65,536
// rounds.
//
// Every number a Pipeline reports derives from the simulation alone:
// equal inputs give byte-identical Results regardless of host, worker
// count, or arena reuse.
package stream

import (
	"errors"
	"fmt"
	"math"

	"github.com/ipda-sim/ipda/internal/aggregate"
	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/energy"
	"github.com/ipda-sim/ipda/internal/eventsim"
)

// Query is one standing sliding-window query. Each firing folds every
// meter's last Window readings into a single per-meter value (sum for the
// additive kinds, min/max for the extrema) and runs one protocol query
// over the folds — "total consumption this interval", "average household
// draw over the last hour", "peak load over the last three hours".
type Query struct {
	Name string
	Kind aggregate.Kind
	// Window is the sliding-window length in epochs (>= 1). A query
	// does not fire until a full window of readings exists.
	Window int
	// Period is the firing period in epochs (>= 1); Phase staggers the
	// first firing so concurrent queries interleave instead of piling
	// onto the same epoch.
	Period int
	Phase  int
	// Power and Normal tune Min/Max queries (see aggregate.Spec); zero
	// selects the SpecFor defaults.
	Power  int
	Normal int64
}

// spec builds the aggregate spec for one firing.
func (q Query) spec() aggregate.Spec {
	s := aggregate.SpecFor(q.Kind)
	if q.Power != 0 {
		s.Power = q.Power
	}
	if q.Normal != 0 {
		s.Normal = q.Normal
	}
	return s
}

// Config drives one pipeline run.
type Config struct {
	// Epochs is the number of metering intervals to run; Interval is the
	// simulated seconds between epoch starts (a 24-hour day of 15-minute
	// reads is Epochs=96, Interval=900).
	Epochs   int
	Interval float64
	Queries  []Query
	// Readings yields meter id's reading for an epoch. It must be a
	// deterministic function of (id, epoch) for runs to reproduce.
	Readings func(id, epoch int) int64
	// Meter, when non-nil, is attached to the instance's radio medium
	// and charged for idle listening across the run's full simulated
	// span, so Result.Joules is the network's total energy bill.
	Meter *energy.Meter
}

func (c Config) validate() error {
	if c.Epochs <= 0 {
		return fmt.Errorf("stream: Epochs must be positive, got %d", c.Epochs)
	}
	if !(c.Interval > 0) {
		return fmt.Errorf("stream: Interval must be positive, got %v", c.Interval)
	}
	if len(c.Queries) == 0 {
		return fmt.Errorf("stream: no queries registered")
	}
	if c.Readings == nil {
		return fmt.Errorf("stream: Readings function is required")
	}
	for i, q := range c.Queries {
		if q.Window < 1 || q.Period < 1 || q.Phase < 0 {
			return fmt.Errorf("stream: query %d (%s): want Window>=1, Period>=1, Phase>=0, got %d/%d/%d",
				i, q.Name, q.Window, q.Period, q.Phase)
		}
	}
	return nil
}

// QueryOutcome reports one firing of one standing query.
type QueryOutcome struct {
	Epoch    int
	Query    int // index into Config.Queries
	Accepted bool
	Value    float64
	// NoData marks a firing whose integrity check passed trivially on an
	// empty collection (aggregate.ErrNoData): nothing reached the base
	// stations, so there is no value. Counted as rejected.
	NoData bool
	// Per-round protocol accounting, summed (Bytes) or from the final
	// round (the counters), mirroring core.RoundOutcome.
	Participants                    int
	RedContributed, BlueContributed int
	Dead, Skipped, Repaired         int
	Bytes                           uint64
	// Latencies holds each additive round's completion latency in
	// simulated seconds (multi-round kinds such as AVG report several).
	Latencies []float64
}

// Result reports one full pipeline run.
type Result struct {
	Epochs int
	// Readings is the metering load generated: one sample per meter per
	// epoch, the denominator of the joules-per-reading headline.
	Readings int64
	Queries  []QueryOutcome
	Accepted int
	Rejected int
	// Bytes covers the whole run including Phase I.
	Bytes uint64
	// SimSeconds is the run's simulated span (Epochs × Interval); Joules
	// is the network-wide energy bill when a Meter was attached (radio
	// tx/rx plus idle listening over the span).
	SimSeconds float64
	Joules     float64
	// Rounds is the cumulative additive-round counter after the run —
	// past 65,536 the key era has rotated at least once.
	Rounds uint64
	Era    uint64
}

// ReadingsPerSecond is the collection throughput in simulated time.
func (r *Result) ReadingsPerSecond() float64 {
	if r.SimSeconds <= 0 {
		return 0
	}
	return float64(r.Readings) / r.SimSeconds
}

// JoulesPerReading is the headline energy cost (0 without a meter).
func (r *Result) JoulesPerReading() float64 {
	if r.Readings == 0 {
		return 0
	}
	return r.Joules / float64(r.Readings)
}

// Pipeline is one epoch pipeline over a deployed instance. Use New, then
// either Run for the whole span or Step/Finish for epoch-level control.
type Pipeline struct {
	in  *core.Instance
	cfg Config

	epoch    int
	t0       eventsim.Time // sim time of epoch 0 (Phase I already behind us)
	maxWin   int
	hist     [][]int64 // readings ring: [epoch % maxWin][meter]
	windowed []int64   // per-firing fold scratch
	filled   int       // epochs recorded so far (ring validity)

	startBytes uint64
	// lat backs every firing's Latencies: each firing's is a capped window
	// of it, so firings share amortized growth instead of a slice each.
	lat []float64

	res Result
}

// New prepares a pipeline over an already-deployed instance. The
// instance's trees, cipher state, and fault schedule carry across every
// epoch; the pipeline only feeds it readings and queries.
func New(in *core.Instance, cfg Config) (*Pipeline, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// The ring holds the largest window any query can fill. A query whose
	// Window exceeds Epochs never fires (it needs that many readings), so
	// the ring is capped at Epochs: an unreachable window must not size it.
	maxWin := 1
	for _, q := range cfg.Queries {
		if q.Window > maxWin {
			maxWin = q.Window
		}
	}
	maxWin = min(maxWin, cfg.Epochs)
	n := in.Net.N()
	p := &Pipeline{
		in:         in,
		cfg:        cfg,
		t0:         in.Sim.Now(),
		maxWin:     maxWin,
		windowed:   make([]int64, n),
		startBytes: in.Medium.TotalBytes(),
	}
	p.hist = make([][]int64, maxWin)
	for i := range p.hist {
		p.hist[i] = make([]int64, n)
	}
	if cfg.Meter != nil {
		in.Medium.SetMeter(cfg.Meter)
	}
	p.res.Epochs = cfg.Epochs
	return p, nil
}

// Step runs one epoch: advance the simulated clock to the epoch start,
// record every meter's reading, and fire each standing query whose
// schedule matches. Call Finish after the last epoch.
func (p *Pipeline) Step() error {
	if p.epoch >= p.cfg.Epochs {
		return fmt.Errorf("stream: Step past the configured %d epochs", p.cfg.Epochs)
	}
	e := p.epoch
	n := p.in.Net.N()
	// Idle-advance to the epoch boundary. A backlogged epoch (queries
	// overran the interval) starts immediately instead — the pipeline
	// applies back-pressure rather than dropping work.
	if at := p.t0 + eventsim.Time(float64(e)*p.cfg.Interval); p.in.Sim.Now() < at {
		p.in.Sim.Run(at)
	}
	slot := p.hist[e%p.maxWin]
	for i := 1; i < n; i++ {
		slot[i] = p.cfg.Readings(i, e)
	}
	p.filled++
	p.res.Readings += int64(n - 1)

	for qi := range p.cfg.Queries {
		q := &p.cfg.Queries[qi]
		if e < q.Phase || (e-q.Phase)%q.Period != 0 || p.filled < q.Window {
			continue
		}
		p.fold(q)
		res, err := p.in.Run(q.spec(), p.windowed)
		if err != nil {
			if errors.Is(err, aggregate.ErrNoData) {
				// A collapse epoch: both trees delivered nothing, so the
				// check passed on empty totals. The day goes on — record
				// the firing as a data-less rejection.
				p.res.Queries = append(p.res.Queries, QueryOutcome{Epoch: e, Query: qi, NoData: true})
				p.res.Rejected++
				continue
			}
			return fmt.Errorf("stream: epoch %d query %s: %w", e, q.Name, err)
		}
		out := QueryOutcome{Epoch: e, Query: qi, Accepted: res.Accepted, Value: res.Value}
		first := len(p.lat)
		for _, ro := range res.Outcomes {
			out.Bytes += ro.Bytes
			out.Participants = ro.Participants
			out.RedContributed, out.BlueContributed = ro.RedContributed, ro.BlueContributed
			out.Dead, out.Skipped, out.Repaired = ro.Dead, ro.Skipped, ro.Repaired
			p.lat = append(p.lat, ro.Latency)
		}
		out.Latencies = p.lat[first:len(p.lat):len(p.lat)]
		p.res.Queries = append(p.res.Queries, out)
		if res.Accepted {
			p.res.Accepted++
		} else {
			p.res.Rejected++
		}
	}
	p.epoch++
	return nil
}

// fold computes each meter's window fold for one firing into p.windowed.
func (p *Pipeline) fold(q *Query) {
	n := p.in.Net.N()
	w := q.Window
	extremum := q.Kind == aggregate.Min || q.Kind == aggregate.Max
	for i := 1; i < n; i++ {
		var acc int64
		for k := 0; k < w; k++ {
			v := p.hist[(p.epoch-k)%p.maxWin][i]
			switch {
			case k == 0:
				acc = v
			case q.Kind == aggregate.Min:
				acc = min(acc, v)
			case q.Kind == aggregate.Max:
				acc = max(acc, v)
			default:
				acc += v
			}
		}
		if extremum && q.Kind == aggregate.Min {
			// Clamp to the representable floor so a quiet meter cannot
			// poison the power-mean round with an out-of-range value.
			if fl := q.spec().MinFloor(); acc < fl {
				acc = fl
			}
		}
		p.windowed[i] = acc
	}
}

// Finish idle-advances to the end of the configured span, charges the
// meter for the idle time, and returns the finalized Result.
func (p *Pipeline) Finish() *Result {
	end := p.t0 + eventsim.Time(float64(p.cfg.Epochs)*p.cfg.Interval)
	if p.in.Sim.Now() < end {
		p.in.Sim.Run(end)
	}
	p.res.SimSeconds = float64(p.cfg.Epochs) * p.cfg.Interval
	p.res.Bytes = p.in.Medium.TotalBytes() - p.startBytes
	if p.cfg.Meter != nil {
		p.cfg.Meter.ChargeIdle(float64(end - p.t0))
		p.res.Joules = p.cfg.Meter.TotalSpent()
	}
	p.res.Rounds = p.in.Rounds()
	p.res.Era = p.in.KeyEra()
	return &p.res
}

// Run steps through every configured epoch and finishes.
func (p *Pipeline) Run() (*Result, error) {
	for p.epoch < p.cfg.Epochs {
		if err := p.Step(); err != nil {
			return nil, err
		}
	}
	return p.Finish(), nil
}

// Epoch returns the next epoch Step would run.
func (p *Pipeline) Epoch() int { return p.epoch }

// DiurnalLoad returns a synthetic household demand in watts at the given
// hour of day: a base load plus overnight sinusoid and morning/evening
// Gaussian peaks, individualized per meter. It is the canonical reading
// profile of the smart-metering experiment (and mirrors the
// examples/smartmetering profile).
func DiurnalLoad(meter int, hour float64) int64 {
	base := 180.0 + 40.0*float64(meter%7)
	overnight := 35.0 * math.Sin(2*math.Pi*(hour+float64(meter%5))/24)
	morning := 350.0 * math.Exp(-(hour-7.5)*(hour-7.5)/2)
	evening := 600.0 * math.Exp(-(hour-19.0)*(hour-19.0)/4.5)
	weekendish := 1.0 + 0.1*float64(meter%3)
	return int64((base + overnight + morning + evening) * weekendish)
}

// DayQueries returns the standing query mix of the smart-metering day:
// four kinds on staggered schedules — per-interval totals, hourly
// averages and variances, and a three-hour peak watch. epochsPerHour
// scales the windows to the configured interval (4 for 15-minute reads).
func DayQueries(epochsPerHour int) []Query {
	if epochsPerHour < 1 {
		epochsPerHour = 1
	}
	h := epochsPerHour
	return []Query{
		{Name: "interval-total", Kind: aggregate.Sum, Window: 1, Period: 1, Phase: 0},
		{Name: "hourly-average", Kind: aggregate.Average, Window: h, Period: h, Phase: 1},
		{Name: "hourly-variance", Kind: aggregate.Variance, Window: h, Period: h, Phase: 2},
		// Peak watch over a 3-hour window. Normal bounds the per-meter
		// window maximum: DiurnalLoad tops out well under 4096 W.
		{Name: "peak-3h", Kind: aggregate.Max, Window: 3 * h, Period: 3 * h, Phase: 3, Power: 8, Normal: 4096},
	}
}
