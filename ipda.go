// Package ipda is a simulation-backed implementation of iPDA, the
// integrity-protecting private data aggregation scheme for wireless sensor
// networks (He et al., MILCOM 2008), together with the TAG baseline it is
// evaluated against.
//
// A Network is a deployed sensor field with the protocol stack already
// running: a discrete-event radio simulation (1 Mbps shared medium, CSMA
// MAC with ARQ), link-level encryption, and the two node-disjoint
// aggregation trees of iPDA's Phase I. Queries execute Phases II and III —
// slicing, assembling, and dual-tree aggregation — and return the
// cross-checked result:
//
//	net, err := ipda.Deploy(ipda.DefaultConfig(400))
//	if err != nil { ... }
//	res, err := net.Count()
//	fmt.Println(res.Value, res.Accepted)
//
// The attack surface of the paper is first-class: InjectPollution turns an
// aggregator malicious (the base station then rejects the round), and
// AttachEavesdropper measures how much a passive adversary with a given
// per-link compromise probability actually learns.
package ipda

import (
	"errors"
	"fmt"
	"io"

	"github.com/ipda-sim/ipda/internal/aggregate"
	"github.com/ipda-sim/ipda/internal/analysis"
	"github.com/ipda-sim/ipda/internal/attack"
	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/energy"
	"github.com/ipda-sim/ipda/internal/fault"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/metrics"
	"github.com/ipda-sim/ipda/internal/mtree"
	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/privacy"
	"github.com/ipda-sim/ipda/internal/qtrace"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/stream"
	"github.com/ipda-sim/ipda/internal/tag"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/tree"
)

// Config describes a deployment and its protocol parameters.
type Config struct {
	// Nodes is the number of sensor nodes (the base station is extra).
	Nodes int
	// FieldSide is the square deployment area's side in meters.
	FieldSide float64
	// Range is the radio range in meters.
	Range float64
	// Slices is l, the slices per tree (the paper recommends 2).
	Slices int
	// Threshold is Th, the integrity acceptance threshold.
	Threshold int64
	// AdaptiveRoles selects the adaptive role rule of Equation (1); when
	// false, pr = pb = 0.5 (Equation 2).
	AdaptiveRoles bool
	// K is the aggregator budget of the adaptive rule (paper: 4).
	K int
	// ShareSpread bounds slice magnitudes (see the slicing package); 0
	// selects full-ring shares.
	ShareSpread int64
	// ExtraBaseStations promotes the listed sensor IDs to additional
	// collection points (Section II-A's multi-base-station extension):
	// they root both trees alongside node 0 and their collections fuse
	// into the final totals. Promoted nodes hold no readings.
	ExtraBaseStations []int
	// Faults, when non-nil, injects deterministic node failures between
	// aggregation rounds: random churn at the configured rates plus any
	// scripted one-shot events. Base stations never fail.
	Faults *Faults
	// Repair enables localized tree repair: when an aggregator dies, its
	// orphaned children deterministically re-attach to alternate live
	// same-color neighbors (disjointness is re-verified every time), and
	// nodes with no alternate parent sit the round out instead of feeding
	// a dead subtree.
	Repair bool
	// MAC selects the channel-access scheme: "csma" (the paper's
	// contention model, the default when empty) or "tdma" (contention-free
	// slotted access from a deterministic two-hop coloring). This is a
	// modelling change — TDMA retimes every transmission, so results
	// legitimately differ from CSMA runs.
	MAC string
	// Coalesce packs each node's same-round slices into one multi-slice
	// frame with a single MAC exchange (anchored at the first target;
	// other targets pick the bundle up promiscuously). Like MAC this is a
	// modelling change — byte and frame counts legitimately differ from
	// the default per-slice framing — so it is off by default and every
	// recorded table stays untouched. See core.Config.Coalesce.
	Coalesce bool
	// Seed drives every random choice; equal configs reproduce runs
	// exactly.
	Seed uint64
	// Observe attaches the instrumentation layer (labeled metrics) to the
	// deployment. Observation never alters protocol behavior or results;
	// read what was recorded through Network.Obs.
	Observe bool
	// TraceQueries attaches the causal per-query tracer: Phase I and
	// every query's protocol phases are spans, and each query yields a
	// span tree linking dissemination, slice exchange, per-node
	// aggregation, MAC retries, and base-station verification, with
	// per-span latency/airtime/energy attribution. Like Observe it never
	// alters protocol behavior or results; read the trace through
	// Network.QueryTrace.
	TraceQueries bool
}

// DefaultConfig returns the paper's evaluation setup for the given number
// of nodes: a 400 m x 400 m field, 50 m range, l = 2, Th = 5, adaptive
// trees with k = 4.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:         nodes,
		FieldSide:     400,
		Range:         50,
		Slices:        2,
		Threshold:     5,
		AdaptiveRoles: true,
		K:             4,
		ShareSpread:   4,
		Seed:          1,
	}
}

// macScheme parses Config.MAC; empty selects CSMA.
func (c Config) macScheme() (mac.Scheme, error) {
	if c.MAC == "" {
		return mac.SchemeCSMA, nil
	}
	return mac.ParseScheme(c.MAC)
}

func (c Config) coreConfig() (core.Config, error) {
	cfg := core.DefaultConfig()
	scheme, err := c.macScheme()
	if err != nil {
		return cfg, err
	}
	cfg.MAC.Scheme = scheme
	cfg.Slices = c.Slices
	cfg.Threshold = c.Threshold
	cfg.Tree.Adaptive = c.AdaptiveRoles
	if c.K > 0 {
		cfg.Tree.K = c.K
	}
	cfg.ShareSpread = c.ShareSpread
	for _, r := range c.ExtraBaseStations {
		cfg.ExtraRoots = append(cfg.ExtraRoots, topology.NodeID(r))
	}
	cfg.Repair = c.Repair
	cfg.Coalesce = c.Coalesce
	if c.Faults != nil {
		fc := c.Faults.faultConfig()
		cfg.Faults = &fc
	}
	return cfg, nil
}

// FaultEvent is one scripted failure or recovery, applied immediately
// before the given aggregation round (0-based: round 0 fires before any
// data round runs). Recover false crashes the node; true revives it.
type FaultEvent struct {
	Round   int
	Node    int
	Recover bool
}

// Faults is a deterministic fault schedule: per-round churn probabilities
// plus scripted one-shot events. The same schedule (same Seed) always
// produces the same failure trace, independent of protocol randomness, so
// protocol variants can be compared under identical failures.
type Faults struct {
	// CrashRate is the per-round probability that each live node crashes.
	CrashRate float64
	// RecoverRate is the per-round probability that each dead node
	// recovers.
	RecoverRate float64
	// Seed roots the schedule's private random streams.
	Seed uint64
	// Events are scripted one-shots, applied before that round's churn.
	Events []FaultEvent
}

func (f Faults) faultConfig() fault.Config {
	fc := fault.Config{CrashRate: f.CrashRate, RecoverRate: f.RecoverRate, Seed: f.Seed}
	for _, e := range f.Events {
		kind := fault.Crash
		if e.Recover {
			kind = fault.Recover
		}
		fc.Events = append(fc.Events, fault.Event{Round: e.Round, Kind: kind, Node: topology.NodeID(e.Node)})
	}
	return fc
}

// Kind selects an aggregation function.
type Kind = aggregate.Kind

// The aggregation functions of Section II-B.
const (
	Sum      = aggregate.Sum
	Count    = aggregate.Count
	Average  = aggregate.Average
	Variance = aggregate.Variance
	Min      = aggregate.Min
	Max      = aggregate.Max
)

// Network is a deployed iPDA network ready to answer queries. It is not
// safe for concurrent use; deploy independent networks per goroutine.
type Network struct {
	cfg  Config
	topo *topology.Network
	inst *core.Instance
	eav  *attack.Eavesdropper
	sink *obs.Sink
	qt   *qtrace.Tracer
}

// Deploy places the nodes, builds the radio stack, and runs Phase I.
func Deploy(cfg Config) (*Network, error) {
	topoCfg := topology.Config{Nodes: cfg.Nodes, FieldSide: cfg.FieldSide, Range: cfg.Range}
	topo, err := topology.Random(topoCfg, rng.New(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	ccfg, err := cfg.coreConfig()
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	var sink *obs.Sink
	if cfg.Observe {
		sink = obs.NewSink()
		ccfg.Obs = sink
	}
	var qt *qtrace.Tracer
	if cfg.TraceQueries {
		qt = qtrace.New(0)
		ccfg.QTrace = qt
	}
	inst, err := core.New(topo, ccfg, cfg.Seed^0xa5a5a5a5)
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	return &Network{cfg: cfg, topo: topo, inst: inst, sink: sink, qt: qt}, nil
}

// Size returns the number of nodes including the base station.
func (n *Network) Size() int { return n.topo.N() }

// AvgDegree returns the network's mean node degree.
func (n *Network) AvgDegree() float64 { return n.topo.AvgDegree() }

// Participants returns the number of sensors that take part in queries.
func (n *Network) Participants() int { return len(n.inst.Participants()) }

// Coverage returns the fraction of sensors reached by both trees
// (Figure 8a).
func (n *Network) Coverage() float64 {
	return metrics.CoverageFraction(n.inst.Trees, n.topo.N())
}

// Participation returns the fraction of sensors able to slice (Figure 8b).
func (n *Network) Participation() float64 {
	return metrics.ParticipationFraction(n.inst.Trees, n.cfg.Slices, n.topo.N())
}

// QueryResult is one answered query.
type QueryResult struct {
	// Value is the finalized statistic; meaningful only when Accepted.
	Value float64
	// Accepted reports the integrity check |S_b − S_r| ≤ Th.
	Accepted bool
	// RedSum and BlueSum are the first-round totals of the two trees.
	RedSum, BlueSum int64
	// Participants is the number of sensors that contributed.
	Participants int
	// RedContributors and BlueContributors count the participants whose
	// planned slices all arrived on that tree in the first round — the
	// graceful-degradation view of how complete each total is.
	RedContributors, BlueContributors int
	// Dead counts nodes down when the first round ran; Skipped counts
	// live nodes that sat it out because repair found no alternate
	// parent; Repaired counts parent re-assignments applied.
	Dead, Skipped, Repaired int
	// Bytes is the radio traffic the query cost.
	Bytes uint64
}

func fromResult(res *core.Result) *QueryResult {
	out := &QueryResult{
		Value:    res.Value,
		Accepted: res.Accepted,
	}
	if len(res.Outcomes) > 0 {
		first := res.Outcomes[0]
		out.RedSum, out.BlueSum = first.Red, first.Blue
		out.Participants = first.Participants
		out.RedContributors, out.BlueContributors = first.RedContributed, first.BlueContributed
		out.Dead, out.Skipped, out.Repaired = first.Dead, first.Skipped, first.Repaired
		for _, o := range res.Outcomes {
			out.Bytes += o.Bytes
		}
	}
	return out
}

// Query answers an aggregation query over per-node readings. readings
// must have Size() entries; index 0 (the base station) is ignored.
func (n *Network) Query(kind Kind, readings []int64) (*QueryResult, error) {
	res, err := n.inst.Run(aggregate.SpecFor(kind), readings)
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	return fromResult(res), nil
}

// Count runs a COUNT query.
func (n *Network) Count() (*QueryResult, error) {
	return n.Query(Count, make([]int64, n.topo.N()))
}

// QueryExtremum runs a tuned MIN or MAX query. The power-mean
// approximation (Section II-B) estimates the extremum within a factor
// n^(1/power); higher powers are tighter but narrow the usable reading
// range: MAX accepts readings in [0, normal], MIN in
// [normal/2^(52/power), normal]. kind must be Min or Max.
func (n *Network) QueryExtremum(kind Kind, readings []int64, power int, normal int64) (*QueryResult, error) {
	if kind != Min && kind != Max {
		return nil, fmt.Errorf("ipda: QueryExtremum requires Min or Max, got %v", kind)
	}
	spec := aggregate.Spec{Kind: kind, Power: power, Normal: normal}
	res, err := n.inst.Run(spec, readings)
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	return fromResult(res), nil
}

// Sum runs a SUM query over readings.
func (n *Network) Sum(readings []int64) (*QueryResult, error) {
	return n.Query(Sum, readings)
}

// Coalescing reports the cumulative frame-coalescing tally since
// deployment: how many multi-slice frames went on the air and how many
// slices rode in them. Both are 0 unless Config.Coalesce.
func (n *Network) Coalescing() (frames, slices uint64) {
	st := n.inst.Medium.Stats()
	return st.FramesCoalesced, st.SlicesCoalesced
}

// Aggregators returns the node IDs holding an aggregator role on either
// tree (the base station, on both trees, is not listed).
func (n *Network) Aggregators() []int {
	return append(n.RedAggregators(), n.BlueAggregators()...)
}

// RedAggregators returns the nodes aggregating on the red tree.
func (n *Network) RedAggregators() []int {
	var out []int
	for _, id := range n.inst.Trees.Aggregators(tree.RoleRed) {
		out = append(out, int(id))
	}
	return out
}

// BlueAggregators returns the nodes aggregating on the blue tree.
func (n *Network) BlueAggregators() []int {
	var out []int
	for _, id := range n.inst.Trees.Aggregators(tree.RoleBlue) {
		out = append(out, int(id))
	}
	return out
}

// InjectPollution makes node id a data-pollution attacker adding delta to
// every intermediate result it forwards; delta 0 restores it.
func (n *Network) InjectPollution(id int, delta int64) {
	n.inst.Pollute(topology.NodeID(id), delta)
}

// Kill fails node id at runtime: it stops slicing, assembling, and
// aggregating until revived. With Config.Repair set, orphaned children of
// a dead aggregator re-attach before the next round; without it, the dead
// node's subtree contribution is lost (and the round typically rejected
// if the loss is asymmetric across the trees).
func (n *Network) Kill(id int) { n.inst.Kill(topology.NodeID(id)) }

// Revive undoes Kill from the next round on.
func (n *Network) Revive(id int) { n.inst.Revive(topology.NodeID(id)) }

// StreamQuery is one standing sliding-window query of a streaming run:
// each firing folds every meter's last Window readings (summed for the
// additive kinds, min/max for the extrema) and answers one protocol query
// over the folds.
type StreamQuery struct {
	Name string
	Kind Kind
	// Window is the sliding-window length in epochs; the query waits for
	// a full window before its first firing.
	Window int
	// Period and Phase schedule firings: the query fires at every epoch
	// e ≥ Phase with (e − Phase) divisible by Period.
	Period int
	Phase  int
	// Power and Normal tune Min/Max queries (see QueryExtremum); zero
	// selects the defaults.
	Power  int
	Normal int64
}

// StreamConfig drives Network.RunStream: a continuous run where one
// deployment serves Epochs metering intervals of Interval simulated
// seconds each, with readings refreshed every epoch.
type StreamConfig struct {
	Epochs   int
	Interval float64
	Queries  []StreamQuery
	// Readings yields node id's reading for an epoch; it must be
	// deterministic in (id, epoch) for runs to reproduce.
	Readings func(id, epoch int) int64
	// Metered enables the per-node energy model (radio tx/rx plus idle
	// listening over the whole span); the result then reports Joules.
	Metered bool
}

// StreamFiring is one answered firing of a standing query.
type StreamFiring struct {
	Epoch    int
	Query    string // StreamQuery.Name
	Accepted bool
	// NoData marks a degraded firing whose integrity check passed on an
	// empty collection; it counts as rejected and carries no Value.
	NoData                  bool
	Value                   float64
	Dead, Skipped, Repaired int
}

// StreamResult summarizes a streaming run.
type StreamResult struct {
	Epochs   int
	Readings int64 // meter samples produced: (Size()−1) × Epochs
	Accepted int
	Rejected int
	Firings  []StreamFiring
	// Bytes covers all radio traffic during the run; SimSeconds is the
	// simulated span; Joules is 0 unless StreamConfig.Metered.
	Bytes             uint64
	SimSeconds        float64
	Joules            float64
	ReadingsPerSecond float64
	JoulesPerReading  float64
	// Rounds is the cumulative aggregation-round count after the run and
	// KeyEra the link-key era it ended in (the era rotates every 65,536
	// rounds so slice nonces never repeat under one key).
	Rounds uint64
	KeyEra uint64
}

// RunStream runs a continuous multi-epoch collection over the deployed
// network: Phase I trees are built once and amortized across every epoch,
// mid-run failures are repaired in place (with Config.Repair), and the
// configured standing queries fire on their staggered schedules. The
// network's round counter keeps advancing across calls.
func (n *Network) RunStream(cfg StreamConfig) (*StreamResult, error) {
	scfg := stream.Config{
		Epochs:   cfg.Epochs,
		Interval: cfg.Interval,
		Readings: cfg.Readings,
	}
	for _, q := range cfg.Queries {
		scfg.Queries = append(scfg.Queries, stream.Query{
			Name: q.Name, Kind: q.Kind, Window: q.Window, Period: q.Period,
			Phase: q.Phase, Power: q.Power, Normal: q.Normal,
		})
	}
	if cfg.Metered {
		meter, err := energy.NewMeter(n.topo.N(), energy.DefaultModel())
		if err != nil {
			return nil, fmt.Errorf("ipda: %w", err)
		}
		scfg.Meter = meter
	}
	p, err := stream.New(n.inst, scfg)
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	res, err := p.Run()
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	out := &StreamResult{
		Epochs:            res.Epochs,
		Readings:          res.Readings,
		Accepted:          res.Accepted,
		Rejected:          res.Rejected,
		Bytes:             res.Bytes,
		SimSeconds:        res.SimSeconds,
		Joules:            res.Joules,
		ReadingsPerSecond: res.ReadingsPerSecond(),
		JoulesPerReading:  res.JoulesPerReading(),
		Rounds:            res.Rounds,
		KeyEra:            res.Era,
	}
	for _, q := range res.Queries {
		out.Firings = append(out.Firings, StreamFiring{
			Epoch:    q.Epoch,
			Query:    scfg.Queries[q.Query].Name,
			Accepted: q.Accepted,
			NoData:   q.NoData,
			Value:    q.Value,
			Dead:     q.Dead, Skipped: q.Skipped, Repaired: q.Repaired,
		})
	}
	return out, nil
}

// DayQueries returns the standing query mix of a smart-metering day —
// per-interval totals, hourly averages and variances, and a three-hour
// peak watch — for the given number of epochs per hour (4 when epochs are
// 15-minute metering intervals).
func DayQueries(epochsPerHour int) []StreamQuery {
	var out []StreamQuery
	for _, q := range stream.DayQueries(epochsPerHour) {
		out = append(out, StreamQuery{
			Name: q.Name, Kind: q.Kind, Window: q.Window, Period: q.Period,
			Phase: q.Phase, Power: q.Power, Normal: q.Normal,
		})
	}
	return out
}

// DiurnalLoad returns a synthetic household demand in watts at the given
// hour of day, individualized per meter — a ready-made reading profile
// for streaming runs.
func DiurnalLoad(meter int, hour float64) int64 {
	return stream.DiurnalLoad(meter, hour)
}

// Eavesdropper reports what a passive adversary learned from observed
// rounds.
type Eavesdropper struct {
	net *Network
	eav *attack.Eavesdropper
}

// AttachEavesdropper installs a global passive adversary compromising
// each link with probability px. Attach before running queries.
func (n *Network) AttachEavesdropper(px float64) *Eavesdropper {
	e := attack.NewEavesdropper(px, rng.New(n.cfg.Seed^0x5eed))
	e.Attach(n.inst)
	n.eav = e
	return &Eavesdropper{net: n, eav: e}
}

// DisclosureRate returns the fraction of participants whose readings the
// adversary recovered in the rounds observed so far.
func (e *Eavesdropper) DisclosureRate() float64 {
	return e.eav.DiscloseRate(e.net.inst.Participants())
}

// TAGNetwork is the unprotected TAG baseline over the same kind of
// deployment, for side-by-side comparisons.
type TAGNetwork struct {
	topo *topology.Network
	inst *tag.Instance
}

// DeployTAG deploys a TAG network with cfg's topology parameters (the
// privacy/integrity fields are ignored — TAG has neither).
func DeployTAG(cfg Config) (*TAGNetwork, error) {
	topoCfg := topology.Config{Nodes: cfg.Nodes, FieldSide: cfg.FieldSide, Range: cfg.Range}
	topo, err := topology.Random(topoCfg, rng.New(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	tcfg := tag.DefaultConfig()
	scheme, err := cfg.macScheme()
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	tcfg.MAC.Scheme = scheme
	inst, err := tag.New(topo, tcfg, cfg.Seed^0x7a6)
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	return &TAGNetwork{topo: topo, inst: inst}, nil
}

// Size returns the number of nodes including the base station.
func (n *TAGNetwork) Size() int { return n.topo.N() }

// Query answers an aggregation query over the TAG tree.
func (n *TAGNetwork) Query(kind Kind, readings []int64) (*QueryResult, error) {
	res, err := n.inst.Run(aggregate.SpecFor(kind), readings)
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	out := &QueryResult{Value: res.Value, Accepted: true}
	if len(res.Outcomes) > 0 {
		out.RedSum = res.Outcomes[0].Sum
		out.BlueSum = res.Outcomes[0].Sum
		out.Participants = res.Outcomes[0].Participants
		for _, o := range res.Outcomes {
			out.Bytes += o.Bytes
		}
	}
	return out, nil
}

// Count runs a COUNT query.
func (n *TAGNetwork) Count() (*QueryResult, error) {
	return n.Query(Count, make([]int64, n.topo.N()))
}

// Kill fails node id: per TAG's epoch model the node neither sends nor
// folds, so its whole subtree is lost until Revive.
func (n *TAGNetwork) Kill(id int) { n.inst.Kill(topology.NodeID(id)) }

// Revive undoes Kill from the next epoch on.
func (n *TAGNetwork) Revive(id int) { n.inst.Revive(topology.NodeID(id)) }

// LocalizePolluter runs the Section III-D countermeasure against a
// persistent DoS polluter: group-testing probe rounds over the deployment
// described by cfg until the attacker is isolated. It returns the suspect
// node and the number of probe rounds used (O(log Nodes)).
func LocalizePolluter(cfg Config, attacker int, delta int64) (suspect, rounds int, err error) {
	topoCfg := topology.Config{Nodes: cfg.Nodes, FieldSide: cfg.FieldSide, Range: cfg.Range}
	topo, err := topology.Random(topoCfg, rng.New(cfg.Seed))
	if err != nil {
		return 0, 0, fmt.Errorf("ipda: %w", err)
	}
	factory := func(disabled []bool, seed uint64) (*core.Instance, error) {
		c, err := cfg.coreConfig()
		if err != nil {
			return nil, err
		}
		c.Tree.Adaptive = false // probes want every covered node aggregating
		c.Disabled = disabled
		return core.New(topo, c, seed)
	}
	res, err := attack.LocalizePolluter(topo.N(), factory, topology.NodeID(attacker), delta, cfg.Seed^0xd05)
	if err != nil {
		return 0, 0, fmt.Errorf("ipda: %w", err)
	}
	return int(res.Suspect), res.Rounds, nil
}

// GameResult reports one indistinguishability experiment (see the privacy
// package): the adversary's empirical advantage in telling two candidate
// readings apart from its view of the slicing phase.
type GameResult struct {
	Advantage           float64
	FullReconstructions int
	Trials              int
}

// RunIndistinguishabilityGame plays the two-world privacy game: a target
// node slices one of two candidate readings v0/v1 into l shares per tree
// (bounded by spread, or full-ring when spread is 0); an adversary
// compromising each link with probability px guesses which. The returned
// advantage is 2·Pr[correct] − 1.
func RunIndistinguishabilityGame(l int, spread int64, px float64, v0, v1 int64, trials int, seed uint64) (GameResult, error) {
	res, err := privacy.RunGame(privacy.Config{
		L: l, Spread: spread, Px: px, V0: v0, V1: v1, Trials: trials,
	}, rng.New(seed))
	if err != nil {
		return GameResult{}, fmt.Errorf("ipda: %w", err)
	}
	return GameResult{
		Advantage:           res.Advantage,
		FullReconstructions: res.FullReconstructions,
		Trials:              res.Trials,
	}, nil
}

// TheoreticalLeafAdvantage returns the analytic optimum of the game under
// full-ring shares: 1 − (1 − px^l)².
func TheoreticalLeafAdvantage(px float64, l int) float64 {
	return privacy.TheoreticalLeafAdvantage(px, l)
}

// Observer exposes the instrumentation a deployment recorded. Obtain one
// from Network.Obs after deploying with Config.Observe set.
type Observer struct {
	sink *obs.Sink
}

// Obs returns the network's instrumentation, or nil when the deployment
// was not observed (Config.Observe false).
func (n *Network) Obs() *Observer {
	if n.sink == nil {
		return nil
	}
	return &Observer{sink: n.sink}
}

// WritePrometheus emits every recorded metric in the Prometheus text
// exposition format. Output is deterministic: families and series are
// sorted, so equal runs produce byte-identical exports.
func (o *Observer) WritePrometheus(w io.Writer) error {
	return o.sink.Reg.WriteProm(w)
}

// QueryTrace exposes the causal per-query trace a deployment recorded.
// Obtain one from Network.QueryTrace after deploying with
// Config.TraceQueries set.
type QueryTrace struct {
	t *qtrace.Tracer
}

// QueryTrace returns the network's query trace, or nil when the
// deployment was not traced (Config.TraceQueries false).
func (n *Network) QueryTrace() *QueryTrace {
	if n.qt == nil {
		return nil
	}
	return &QueryTrace{t: n.qt}
}

// Len returns the number of recorded spans.
func (q *QueryTrace) Len() int { return q.t.Len() }

// Dropped returns how many spans overflowed the tracer's limit.
func (q *QueryTrace) Dropped() int { return q.t.Dropped() }

// WriteJSONL emits the trace as JSON lines, one span per line, in a
// deterministic order (see cmd/ipda-trace for querying the output).
func (q *QueryTrace) WriteJSONL(w io.Writer) error { return q.t.WriteJSONL(w) }

// WriteChromeTrace emits the trace as Chrome trace-event JSON loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing, one track per node
// plus a network track for Phase I and the per-round phases. Simulated
// seconds map to trace microseconds, so a 1-second phase renders as a
// 1 ms slice.
func (q *QueryTrace) WriteChromeTrace(w io.Writer) error {
	return qtrace.WriteChromeTrace(w, q.t.Spans())
}

// WriteText renders the causal span tree as deterministic indented text.
func (q *QueryTrace) WriteText(w io.Writer) error {
	return qtrace.WriteText(w, q.t.Spans())
}

// WriteHealth renders the round-health analysis: per-round verdicts,
// per-subtree contribution/loss attribution, and the per-hop critical
// path to the base station.
func (q *QueryTrace) WriteHealth(w io.Writer) error {
	return qtrace.WriteHealth(w, q.t.Spans())
}

// MultiTreeNetwork is the m > 2 generalization of iPDA (the extension
// Section III-B sketches): m node-disjoint aggregation trees with
// majority-vote verification at the base station. With m ≥ 2f+1 trees the
// base station survives f colluding same-delta polluters — the scenario
// the paper's Section VI leaves as future work.
type MultiTreeNetwork struct {
	topo *topology.Network
	inst *mtree.Instance
}

// DeployMultiTree deploys m disjoint trees over cfg's topology. The
// denser the network, the larger the m it can support. The m-tree
// protocol has no tree repair, coalesced framing, fault schedule or extra
// base stations, so a cfg that sets Repair, Coalesce, Faults or
// ExtraBaseStations is rejected rather than silently run without them.
func DeployMultiTree(cfg Config, m int) (*MultiTreeNetwork, error) {
	switch {
	case cfg.Repair:
		return nil, errors.New("ipda: DeployMultiTree does not support Config.Repair")
	case cfg.Coalesce:
		return nil, errors.New("ipda: DeployMultiTree does not support Config.Coalesce")
	case cfg.Faults != nil:
		return nil, errors.New("ipda: DeployMultiTree does not support Config.Faults")
	case len(cfg.ExtraBaseStations) > 0:
		return nil, errors.New("ipda: DeployMultiTree does not support Config.ExtraBaseStations")
	}
	topoCfg := topology.Config{Nodes: cfg.Nodes, FieldSide: cfg.FieldSide, Range: cfg.Range}
	topo, err := topology.Random(topoCfg, rng.New(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	mcfg := mtree.DefaultConfig(m)
	scheme, err := cfg.macScheme()
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	mcfg.MAC = mac.DefaultConfig()
	mcfg.MAC.Scheme = scheme
	mcfg.Slices = cfg.Slices
	mcfg.Threshold = cfg.Threshold
	mcfg.ShareSpread = cfg.ShareSpread
	if cfg.K > mcfg.K {
		mcfg.K = cfg.K
	}
	if m > mcfg.K {
		mcfg.K = m
	}
	inst, err := mtree.New(topo, mcfg, cfg.Seed^0x3b9)
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	return &MultiTreeNetwork{topo: topo, inst: inst}, nil
}

// Size returns the number of nodes including the base station.
func (n *MultiTreeNetwork) Size() int { return n.topo.N() }

// Coverage returns the fraction of sensors reached by all m trees.
func (n *MultiTreeNetwork) Coverage() float64 { return n.inst.CoverageFraction() }

// TreeOf returns the tree index node id aggregates on: -1 for leaves and
// nodes Phase I never reached, -2 for the base station (the root of every
// tree).
func (n *MultiTreeNetwork) TreeOf(id int) int { return n.inst.TreeOf[id] }

// InjectPollution makes node id a pollution attacker; delta 0 removes it.
func (n *MultiTreeNetwork) InjectPollution(id int, delta int64) {
	n.inst.Pollute(topology.NodeID(id), delta)
}

// MultiTreeResult is one majority-verified query.
type MultiTreeResult struct {
	// Totals holds each tree's independent total.
	Totals []int64
	// Accepted reports whether a strict majority of trees agreed.
	Accepted bool
	// Value is the majority total.
	Value int64
	// Outliers lists the dissenting tree indices (polluted or lossy).
	Outliers []int
}

// Count runs a majority-verified COUNT over all trees.
func (n *MultiTreeNetwork) Count() (*MultiTreeResult, error) {
	v, err := n.inst.RunCount()
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	return &MultiTreeResult{Totals: v.Totals, Accepted: v.Accepted, Value: v.Value, Outliers: v.Outliers}, nil
}

// Sum runs a majority-verified SUM over all trees.
func (n *MultiTreeNetwork) Sum(readings []int64) (*MultiTreeResult, error) {
	v, err := n.inst.RunSum(readings)
	if err != nil {
		return nil, fmt.Errorf("ipda: %w", err)
	}
	return &MultiTreeResult{Totals: v.Totals, Accepted: v.Accepted, Value: v.Value, Outliers: v.Outliers}, nil
}

// TheoreticalDisclosure returns Equation (11) for a d-regular network:
// the probability an eavesdropper with per-link compromise probability px
// recovers a reading sliced l ways.
func TheoreticalDisclosure(px float64, l int) float64 {
	return analysis.PDiscloseRegular(px, l)
}

// OverheadRatio returns the analytic iPDA/TAG message ratio (2l+1)/2.
func OverheadRatio(l int) float64 {
	return analysis.OverheadRatio(l)
}
