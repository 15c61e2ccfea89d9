// Package tag implements the TAG baseline (Madden et al., OSDI'02) the
// paper compares against: plain in-network additive aggregation over a
// single spanning tree, with no privacy and no integrity protection.
//
// Each node sends exactly two messages per query — the tree-construction
// HELLO and one partial-aggregate message to its parent — which is the
// denominator of the paper's (2l+1)/2 overhead ratio. Readings travel in
// the clear: any neighbor of a leaf learns the leaf's value, which is the
// privacy failure iPDA exists to fix.
package tag

import (
	"fmt"

	"github.com/ipda-sim/ipda/internal/aggregate"
	"github.com/ipda-sim/ipda/internal/energy"
	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/fault"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/qtrace"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/tree"
)

// Config parameterizes a TAG instance.
type Config struct {
	// MAC carries the full channel-access configuration, scheme included:
	// setting MAC.Scheme = mac.SchemeTDMA runs the TAG baseline on the
	// same contention-free slotted schedule as the iPDA stacks, keeping
	// cross-protocol comparisons apples-to-apples under either scheme.
	MAC mac.Config
	// TreeDeadline bounds spanning-tree construction.
	TreeDeadline eventsim.Time
	// AggSlot is the per-hop transmission slot of the aggregation epoch.
	AggSlot eventsim.Time
	// QTrace is the optional causal per-query tracer (see
	// core.Config.QTrace); nil disables tracing and never changes a run.
	QTrace *qtrace.Tracer
}

// DefaultConfig returns parameters matched to the iPDA defaults so byte
// comparisons are apples-to-apples.
func DefaultConfig() Config {
	return Config{MAC: mac.DefaultConfig(), TreeDeadline: 10, AggSlot: 0.25}
}

// Instance is one deployed TAG network.
type Instance struct {
	Net    *topology.Network
	Cfg    Config
	Sim    *eventsim.Sim
	Medium *radio.Medium
	MAC    *mac.MAC
	Tree   *tree.TAGResult

	rand rng.Stream
	// round is the cumulative lifetime round counter; only its low 16
	// bits go on the air (TAG sends plaintext partials, so unlike core
	// there is no nonce to protect — the wide counter exists for
	// epoch-qualified round identity in long-running pipelines).
	round uint64
	dead  []bool

	childSum   []int64
	childCount []uint32
	sent       []bool

	// Steady-state reuse machinery (see Reset): the TAG tree builder, the
	// contribution scratch, the shared per-round handler, and the pooled
	// partial-aggregate send events.
	builder   tree.TAGBuilder
	contribs  []int64
	zeros     []int64 // RunCount's readings: never written, so all zero
	handlerFn mac.Handler
	sendFree  []*sendEvent

	// Query-tracing state (see core.Instance): the round root span, the
	// per-node child aggregate spans awaiting re-parenting, and the last
	// base-station arrival (tracked unconditionally for Outcome.Latency).
	qt            *qtrace.Tracer
	roundSpan     qtrace.Ref
	pendingAgg    [][]qtrace.Ref
	lastBSArrival eventsim.Time
}

// sendEvent is a pooled deferred partial-aggregate send; fire is built
// once per event and recycles it right after the MAC copies the packet.
type sendEvent struct {
	in      *Instance
	id      topology.NodeID
	contrib int64
	round   uint16
	fire    func()
}

// Kill fails node id at runtime: from the next epoch on it neither sends
// its partial aggregate nor folds receptions, so — as in TAG's epoch
// model — its whole subtree's contribution is lost until the tree would
// be rebuilt. It satisfies fault.Target, letting churn experiments drive
// iPDA and the TAG baseline with one schedule.
func (in *Instance) Kill(id topology.NodeID) {
	if in.dead == nil {
		in.dead = make([]bool, in.Net.N())
	}
	in.dead[id] = true
}

// Revive undoes Kill.
func (in *Instance) Revive(id topology.NodeID) {
	if in.dead != nil {
		in.dead[id] = false
	}
}

func (in *Instance) isDead(id topology.NodeID) bool {
	return in.dead != nil && in.dead[id]
}

var _ fault.Target = (*Instance)(nil)

// New deploys a TAG instance and builds its spanning tree.
func New(net *topology.Network, cfg Config, seed uint64) (*Instance, error) {
	in := &Instance{}
	if err := in.Reset(net, cfg, seed); err != nil {
		return nil, err
	}
	return in, nil
}

// Reset re-deploys the instance over net exactly as New(net, cfg, seed)
// would, reusing the simulator, medium, MAC tables, tree arrays, and round
// buffers grown by the previous deployment. Results obtained before the
// Reset (Tree, Run outputs) are invalidated.
func (in *Instance) Reset(net *topology.Network, cfg Config, seed uint64) error {
	if cfg.TreeDeadline <= 0 || cfg.AggSlot <= 0 {
		return fmt.Errorf("tag: deadlines must be positive")
	}
	n := net.N()
	root := rng.New(seed)
	if in.Sim == nil {
		in.Sim = eventsim.New()
		in.Medium = radio.New(in.Sim, net, radio.PaperRate)
	} else {
		in.Sim.Reset()
		in.Medium.Reset(net)
	}
	macRand := root.Derive(1)
	if in.MAC == nil {
		in.MAC = mac.New(in.Sim, in.Medium, n, cfg.MAC, &macRand)
	} else {
		in.MAC.Reset(n, cfg.MAC, &macRand)
	}
	in.qt = cfg.QTrace
	in.Medium.SetQTrace(cfg.QTrace, energy.DefaultModel())
	in.MAC.SetQTrace(cfg.QTrace)
	in.roundSpan = qtrace.None
	phase1 := in.qt.Start(0, qtrace.None, -1, "phase1:tree-construction", float64(in.Sim.Now()))
	tr := in.builder.Build(in.Sim, in.MAC, net, cfg.TreeDeadline)
	in.qt.End(phase1, float64(in.Sim.Now()))
	in.Net = net
	in.Cfg = cfg
	in.Tree = tr
	in.rand = root.Derive(2)
	in.round = 0
	if in.dead != nil {
		if len(in.dead) == n {
			clear(in.dead)
		} else {
			in.dead = nil
		}
	}
	return nil
}

// Outcome reports one TAG aggregation round.
type Outcome struct {
	Sum          int64
	Participants int
	Bytes        uint64
	// Latency is the round's completion latency: the last partial
	// aggregate folded at the base station, measured from the epoch's
	// start (0 if nothing arrived). Tracked unconditionally.
	Latency float64
}

// Result reports one full TAG query.
type Result struct {
	Outcomes []Outcome
	Value    float64

	rounds [4]Outcome // backs Outcomes (see core.Result)
}

// Run answers one aggregation query; readings[0] is ignored.
func (in *Instance) Run(spec aggregate.Spec, readings []int64) (*Result, error) {
	if len(readings) != in.Net.N() {
		return nil, fmt.Errorf("tag: %d readings for %d nodes", len(readings), in.Net.N())
	}
	valueRounds := spec.Rounds()
	total := valueRounds
	needsCount := spec.Kind == aggregate.Average || spec.Kind == aggregate.Variance
	if needsCount {
		total++
	}
	res := &Result{}
	res.Outcomes = res.rounds[:0]
	var sumBuf [2]int64 // aggregate.Spec.Rounds is 1 or 2
	sums := sumBuf[:valueRounds]
	var count uint32
	countSpec := aggregate.SpecFor(aggregate.Count)
	if cap(in.contribs) < in.Net.N() {
		in.contribs = make([]int64, in.Net.N())
	}
	in.contribs = in.contribs[:in.Net.N()]
	for round := 0; round < total; round++ {
		contribs := in.contribs
		clear(contribs)
		for i := 1; i < in.Net.N(); i++ {
			var c int64
			var err error
			if round < valueRounds {
				c, err = spec.Contribution(readings[i], round)
			} else {
				c, err = countSpec.Contribution(readings[i], 0)
			}
			if err != nil {
				return nil, fmt.Errorf("tag: node %d: %w", i, err)
			}
			contribs[i] = c
		}
		out := in.runRound(contribs)
		res.Outcomes = append(res.Outcomes, out)
		if round < valueRounds {
			sums[round] = out.Sum
		} else {
			count = uint32(out.Sum)
		}
	}
	if !needsCount && len(res.Outcomes) > 0 {
		count = uint32(res.Outcomes[0].Participants)
	}
	v, err := spec.Finalize(sums, count)
	if err != nil {
		return nil, fmt.Errorf("tag: finalize: %w", err)
	}
	res.Value = v
	return res, nil
}

// RunCount is shorthand for a COUNT query.
func (in *Instance) RunCount() (*Result, error) {
	n := in.Net.N()
	if cap(in.zeros) < n {
		in.zeros = make([]int64, n)
	}
	return in.Run(aggregate.SpecFor(aggregate.Count), in.zeros[:n])
}

// runRound executes one TAG epoch: every tree node sends (own contribution
// + children's partials) to its parent, deepest hops first.
func (in *Instance) runRound(contribs []int64) Outcome {
	n := in.Net.N()
	in.round++
	round := uint16(in.round)
	startBytes := in.Medium.TotalBytes()

	in.childSum = resizeCleared(in.childSum, n)
	in.childCount = resizeCleared(in.childCount, n)
	in.sent = resizeCleared(in.sent, n)
	in.lastBSArrival = in.Sim.Now()
	if in.qt != nil {
		if cap(in.pendingAgg) < n {
			in.pendingAgg = append(in.pendingAgg[:cap(in.pendingAgg)], make([][]qtrace.Ref, n-cap(in.pendingAgg))...)
		}
		in.pendingAgg = in.pendingAgg[:n]
		for i := range in.pendingAgg {
			in.pendingAgg[i] = in.pendingAgg[i][:0]
		}
	}

	// One dispatch closure serves every node and every round: in.round is
	// constant while a round's events drain, so filtering on it matches the
	// former per-round captured-round closures exactly.
	if in.handlerFn == nil {
		in.handlerFn = func(self topology.NodeID, p *packet.Packet) {
			if p.Kind != packet.KindAggregate || p.Round != uint16(in.round) || in.isDead(self) {
				return
			}
			in.childSum[self] += p.Value
			in.childCount[self] += p.Count
			if self == 0 {
				in.lastBSArrival = in.Sim.Now()
			}
			if in.qt != nil {
				in.qt.Instant(uint32(p.Round), qtrace.Ref(p.TraceSpan), int32(self), "aggregate:rx", float64(in.Sim.Now()))
				if int(self) < len(in.pendingAgg) {
					in.pendingAgg[self] = append(in.pendingAgg[self], qtrace.Ref(p.TraceSpan))
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		in.MAC.SetHandler(topology.NodeID(i), in.handlerFn)
	}

	maxHop := uint16(0)
	participants := 0
	for i := 1; i < n; i++ {
		if in.Tree.Reached[i] && !in.isDead(topology.NodeID(i)) {
			participants++
		}
		if in.Tree.Reached[i] && in.Tree.Hop[i] > maxHop {
			maxHop = in.Tree.Hop[i]
		}
	}
	t0 := in.Sim.Now()
	in.roundSpan = qtrace.None
	if in.qt != nil {
		in.roundSpan = in.qt.Start(uint32(round), qtrace.None, -1, "round", float64(t0))
	}
	for i := 1; i < n; i++ {
		id := topology.NodeID(i)
		if !in.Tree.Reached[id] || in.isDead(id) {
			continue
		}
		slot := eventsim.Time(maxHop-in.Tree.Hop[id]) * in.Cfg.AggSlot
		jitter := eventsim.Time(in.rand.Float64()) * in.Cfg.AggSlot / 2
		ev := in.getSendEvent()
		ev.id, ev.contrib, ev.round = id, contribs[i], round
		in.Sim.At(t0+slot+jitter, ev.fire)
	}
	deadline := t0 + eventsim.Time(maxHop+2)*in.Cfg.AggSlot + 1.0
	if in.qt != nil {
		in.qt.End(in.roundSpan, float64(deadline))
	}
	in.Sim.Run(deadline)

	return Outcome{
		Sum:          in.childSum[0],
		Participants: participants,
		Bytes:        in.Medium.TotalBytes() - startBytes,
		Latency:      float64(in.lastBSArrival - t0),
	}
}

// getSendEvent pops a pooled partial-aggregate send event (building its
// fire closure on first use); fireSend returns it to the pool.
func (in *Instance) getSendEvent() *sendEvent {
	if k := len(in.sendFree); k > 0 {
		ev := in.sendFree[k-1]
		in.sendFree = in.sendFree[:k-1]
		return ev
	}
	ev := &sendEvent{in: in}
	ev.fire = func() { ev.in.fireSend(ev) }
	return ev
}

func (in *Instance) fireSend(ev *sendEvent) {
	id := ev.id
	pkt := packet.Packet{
		Header: packet.Header{Kind: packet.KindAggregate, Src: int32(id), Dst: int32(in.Tree.Parent[id]), Round: ev.round},
		Value:  ev.contrib + in.childSum[id],
		Count:  in.childCount[id] + 1,
	}
	if in.qt != nil {
		agg := in.qt.Start(uint32(ev.round), in.roundSpan, int32(id), "aggregate:tag", float64(in.Sim.Now()))
		in.qt.SetPeer(agg, int32(in.Tree.Parent[id]))
		if int(id) < len(in.pendingAgg) {
			for _, child := range in.pendingAgg[id] {
				in.qt.SetParent(child, agg)
			}
			in.pendingAgg[id] = in.pendingAgg[id][:0]
		}
		pkt.TraceQ = ev.round
		pkt.TraceSpan = uint32(agg)
	}
	in.MAC.Send(id, &pkt)
	in.sendFree = append(in.sendFree, ev)
}

// resizeCleared returns s resized to n elements, all zero, reusing its
// backing array when it suffices.
func resizeCleared[E int64 | uint32 | bool](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}
