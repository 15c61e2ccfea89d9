// Package core implements the iPDA protocol — the paper's primary
// contribution — over the simulated wireless network.
//
// An Instance binds one deployed network to m disjoint aggregation trees
// (Phase I, delegated to package tree; the paper's red and blue at m = 2)
// and then answers aggregation queries round by round:
//
//   - Phase II (privacy-preserving data report): every participating node
//     splits its per-round additive contribution into l encrypted slices
//     per tree and sends them to aggregator neighbors at random times
//     inside the slicing window; aggregators decrypt and assemble.
//   - Phase III (integrity-protecting aggregation): aggregators fold their
//     assembled totals with their children's partial sums, deepest hops
//     first, up each tree independently; the base station cross-checks the
//     two totals and accepts the round only if |S_b − S_r| ≤ Th.
//
// Phases II and III form one round engine over any tree.Forest of m
// disjoint trees: Deploy takes the tree count (Reset and New deploy two),
// and RunRound runs a round and reports every tree's total. The engine
// decides the verdict for every m with one majority vote: a round is
// accepted when a strict majority of the trees agree pairwise within Th,
// which at m = 2 is exactly |S_b − S_r| ≤ Th (see majority). Every query
// kind, repair, coalescing, faults, instrumentation and tracing work for
// every m. More trees address the paper's stated future work (Section VI,
// collusive attacks): with m = 2, two colluding aggregators on different
// trees that apply the same delta fool the check; with m = 3 the honest
// third tree outvotes one polluter, the base station keeps the true total,
// and it names the polluted tree.
//
// Rounds run over pre-scheduled epochs, the common TAG-style deployment:
// every node knows when a round starts, so no query is flooded down the
// trees.
//
// The engine also exposes the hooks the evaluation needs: pollution
// attackers (Section II-C), node disablement for DoS-attacker localization
// (Section III-D), per-phase byte accounting (Figure 7), and
// coverage/participation metrics (Figure 8).
package core

import (
	"fmt"

	"github.com/ipda-sim/ipda/internal/aggregate"
	"github.com/ipda-sim/ipda/internal/energy"
	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/fault"
	"github.com/ipda-sim/ipda/internal/linksec"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/qtrace"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/slicing"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/tree"
)

// Config parameterizes one iPDA instance.
type Config struct {
	// Slices is l, the number of slices per tree (paper recommends 2;
	// l = 1 disables slicing and reports plain encrypted readings).
	Slices int
	// Threshold is Th, the acceptance threshold on |S_b − S_r|
	// (Section III-D; the paper suggests small values such as 5 for
	// COUNT). With m trees, two trees agree when their totals differ by at
	// most Th, and a round needs a strict majority that agrees pairwise.
	Threshold int64
	// Tree configures Phase I.
	Tree tree.Config
	// MAC configures the CSMA layer.
	MAC mac.Config
	// Keys is the link-key scheme; nil selects a pairwise scheme derived
	// from the instance seed.
	Keys linksec.Scheme
	// SliceWindow is the Phase II reporting window; slices are sent at
	// uniform random offsets within it.
	SliceWindow eventsim.Time
	// AggSlot is the Phase III per-hop time slot: aggregators at hop h
	// transmit (maxHop − h) slots into the phase, children before parents.
	AggSlot eventsim.Time
	// ShareSpread controls slice magnitudes: shares are uniform over
	// [−s·|v|, s·|v|] (see slicing.SplitBoundedAppend). Zero selects full-ring
	// uniform shares — perfect hiding, but a single lost slice randomizes
	// the round total, so use it only on effectively loss-free channels.
	ShareSpread int64
	// Disabled marks nodes excluded from the protocol (see tree.Config).
	Disabled []bool
	// ExtraRoots lists additional base stations beyond node 0 (Section
	// II-A). Each roots both trees and collects partial results; the
	// final totals fuse all roots' collections. Roots hold no readings.
	ExtraRoots []topology.NodeID
	// Faults optionally replays a deterministic crash/recover schedule
	// against this instance: the schedule advances once per additive
	// round, just before the round starts, driving Kill/Revive (see
	// internal/fault). Base stations are always protected. Nil disables
	// injection.
	Faults *fault.Config
	// Coalesce packs each participant's same-round remote slices (both
	// trees) into one multi-slice frame (packet.KindSliceBatch) with one
	// MAC exchange: the frame is addressed to — and ACKed by — the first
	// slice target, and the other targets decode it promiscuously (the
	// radio is a broadcast medium either way). Non-anchor pickups forgo
	// individual ARQ — a deliberate modeled tradeoff between frame
	// economy and per-slice reliability — under TDMA too: its slots keep
	// data frames apart, but an ACK in the same slot three hops away can
	// still corrupt a non-anchor copy (see package mac). Coalescing changes
	// the modeled byte/frame counts, so it is off by default and every
	// default table is untouched.
	Coalesce bool
	// Repair enables localized tree repair: each round, live aggregators
	// whose parent is dead re-attach to an alternate live same-tree
	// neighbor (tree.Forest.RepairDead), and slice senders avoid dead or
	// skipping targets. Without it the trees are used as built and a dead
	// aggregator silently severs its whole subtree.
	Repair bool
	// Obs is the optional metrics sink, filled from every layer's Stats at
	// the end of Phase I and of every round (see publish). Nil disables
	// it; observing never alters a run's protocol behavior or its results.
	Obs *obs.Sink
	// QTrace is the optional causal per-query tracer (see
	// internal/qtrace). Every traced frame carries its causing span in
	// the packet header's trace context, so radio airtime, MAC retries,
	// and joules attribute hop by hop to a causally linked span tree
	// rooted at the round. Tracing never schedules events and never
	// draws randomness; nil disables it, and runs are byte-identical
	// either way.
	QTrace *qtrace.Tracer
}

// DefaultConfig returns the paper's recommended parameters: l = 2, Th = 5,
// adaptive trees with k = 4.
func DefaultConfig() Config {
	return Config{
		Slices:      2,
		Threshold:   5,
		Tree:        tree.DefaultConfig(),
		MAC:         mac.DefaultConfig(),
		SliceWindow: 2.0,
		AggSlot:     0.25,
		ShareSpread: 4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Slices < 1 {
		return fmt.Errorf("core: Slices must be >= 1, got %d", c.Slices)
	}
	if c.Threshold < 0 {
		return fmt.Errorf("core: Threshold must be >= 0, got %d", c.Threshold)
	}
	if c.SliceWindow <= 0 || c.AggSlot <= 0 {
		return fmt.Errorf("core: SliceWindow and AggSlot must be positive")
	}
	if c.ShareSpread < 0 {
		return fmt.Errorf("core: ShareSpread must be >= 0, got %d", c.ShareSpread)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	tc := c.Tree
	tc.ExtraRoots = c.ExtraRoots // the roots Phase I runs with
	return tc.Validate()
}

// Instance is one deployed iPDA network with constructed trees, ready to
// answer aggregation queries. It is not safe for concurrent use; run
// independent instances on separate goroutines instead.
type Instance struct {
	Net    *topology.Network
	Cfg    Config
	Sim    *eventsim.Sim
	Medium *radio.Medium
	MAC    *mac.MAC
	Trees  *tree.Forest // the Phase I outcome the round engine runs on
	Keys   linksec.Scheme

	// OnSlice, when set, observes every slice put on the air (ground
	// truth, independent of delivery): the attack experiments use it to
	// model eavesdroppers with per-link compromise probabilities without
	// re-deriving plaintexts from ciphertexts.
	OnSlice func(src, dst topology.NodeID, color packet.Color, share int64)
	// OnLocalShare observes shares an aggregator keeps for itself (these
	// never touch the air).
	OnLocalShare func(id topology.NodeID, color packet.Color, share int64)

	m int // the tree count of Trees

	rand rng.Stream
	// round counts additive rounds over the deployment's whole lifetime
	// (an epoch pipeline runs tens of thousands per instance). Only its
	// low 16 bits go on the air — packet.Header.Round — and feed the
	// slice nonces; era is the high bits, and every era boundary rotates
	// the link keys (see linksec.EraKeys), so the effective nonce
	// identity (era, wire nonce) never repeats.
	round     uint64
	era       uint64
	polluters map[topology.NodeID]int64
	dead      []bool
	ciphers   *linksec.CipherCache // per-link sealing state over Keys
	pairwise  linksec.Pairwise     // Keys when Config.Keys is nil
	builder   tree.Builder         // reusable Phase I machinery (see Reset)
	stats     Stats                // the engine's event counts since Deploy
	metrics   metrics              // fills Config.Obs from the layers' Stats

	// Fault-injection and repair state. basisParent is the pristine
	// Phase I parent vector; repair mutates Trees.Parent per round and the
	// basis restores it at the next round's start. skip marks live
	// aggregators sitting the current round out (no disjoint
	// re-attachment existed for them).
	faults      *fault.Injector
	faultRound  int
	basisParent []topology.NodeID
	skip        []bool
	treesDirty  bool

	// Per-round mutable state: allocated once on first use and cleared in
	// place by resetRoundState, so steady-state rounds reuse the buffers.
	// The per-tree buffers are flat and indexed node·m + tree.
	asm        []slicing.Assembler
	childSum   []int64
	childCount []uint32
	contribs   []int64
	// planned/delivered count Phase II shares per origin node and tree:
	// the participation accounting behind the RoundOutcome contributor
	// fields.
	planned   []uint16
	delivered []uint16
	bsSum     []int64 // Phase III arrivals at the base stations, per tree
	zeros     []int64 // RunCount's readings: never written, so all zero

	// Steady-state reuse machinery: the per-node slicing plans, the
	// candidate-filter scratch, the pooled Phase II/III send events, and
	// the single dispatch handler shared by every node. None of it affects
	// behavior — only where the bytes live.
	plans      []slicePlan
	cands      [][]topology.NodeID
	sliceFree  []*sliceEvent
	aggFree    []*aggEvent
	dispatchFn mac.Handler
	// Per-node Phase II seal staging: every tree's remote shares are
	// collected here and sealed in one SealBatch call, so paired nonces on
	// a link share one AES keystream block. sealColors runs parallel to
	// sealReqs (the batch entries carry no color).
	sealReqs   []linksec.SealReq
	sealColors []packet.Color

	// Query-tracing state (nil qt disables every site). roundSpan is the
	// current round's root span; pendingAgg holds, per node, the child
	// aggregate spans awaiting re-parenting to the node's own aggregate
	// span (or, at a base station, to the verify instant). lastBSArrival
	// is tracked unconditionally — it feeds RoundOutcome.Latency, which
	// must not depend on tracing.
	qt            *qtrace.Tracer
	roundSpan     qtrace.Ref
	pendingAgg    [][]qtrace.Ref
	lastBSArrival eventsim.Time
}

// slicePlan is one node's Phase II plan for the current round: tree t's
// shares are shares[t·l : (t+1)·l], one per target in targets.Trees[t].
// The targets and shares are reused across rounds; active marks plans
// built this round.
type slicePlan struct {
	targets slicing.Targets
	shares  []int64
	active  bool
}

// sliceEvent is a pooled deferred MAC send for one Phase II slice — or,
// with coalescing, one multi-slice batch frame whose entries live in the
// event's own reusable buffer. fire is built once per event and recycles
// the event right after Send (the MAC deep-copies the packet, entries
// included), so steady-state rounds schedule slices with no per-slice
// closure or packet allocation.
type sliceEvent struct {
	in      *Instance
	src     topology.NodeID
	pkt     packet.Packet
	entries []packet.SliceEntry
	fire    func()
}

// aggEvent is the pooled Phase III counterpart: a deferred sendAggregate.
type aggEvent struct {
	in    *Instance
	id    topology.NodeID
	round uint16
	fire  func()
}

// aggSpanNames names each tree's Phase III aggregate spans without a
// per-send string concatenation.
var aggSpanNames = func() (s [tree.MaxTrees]string) {
	for t := range s {
		s[t] = "aggregate:" + tree.Name(t)
	}
	return s
}()

// New deploys an Instance: it builds the radio stack over net, runs
// Phase I, and verifies tree disjointness. All randomness derives from
// seed, so equal inputs give byte-identical runs.
func New(net *topology.Network, cfg Config, seed uint64) (*Instance, error) {
	in := &Instance{}
	if err := in.Reset(net, cfg, seed); err != nil {
		return nil, err
	}
	return in, nil
}

// Reset re-deploys the instance over net as if freshly constructed by
// New(net, cfg, seed) — same randomness derivation, byte-identical
// behavior — but reusing the simulator, the radio medium, the MAC's
// per-node tables, the cipher pool, the Phase I builder, and every
// per-round buffer the previous deployment grew. A trial loop that holds
// one Instance per worker and Resets it per trial runs the steady state
// almost entirely off the allocator. Callers must not use results (Trees,
// Keys, Run outputs' aliased state) from before the Reset afterwards.
func (in *Instance) Reset(net *topology.Network, cfg Config, seed uint64) error {
	return in.Deploy(net, cfg, seed, 2)
}

// Deploy re-deploys the instance over net like Reset, with m disjoint
// trees (2 ≤ m ≤ tree.MaxTrees; Reset is Deploy at m = 2).
func (in *Instance) Deploy(net *topology.Network, cfg Config, seed uint64, m int) error {
	return in.deploy(net, cfg, seed, m, nil)
}

// deploy is Deploy with an optional stand-in for Phase I: a non-nil
// forest replaces the flood, so tests can feed the engine hand-built and
// malformed forests. A malformed forest, or one of other than m trees, is
// an error.
func (in *Instance) deploy(net *topology.Network, cfg Config, seed uint64, m int, forest *tree.Forest) error {
	if err := cfg.Validate(); err != nil {
		return err
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
	macCfg := cfg.MAC
	if cfg.Coalesce && macCfg.MaxFrameSize == 0 {
		// A coalesced frame can carry every remote share of one node in
		// one round: up to Slices per tree, m trees. TDMA slots must
		// budget for it (CSMA ignores the hint).
		macCfg.MaxFrameSize = packet.SliceBatchSize(m * cfg.Slices)
	}
	macRand := root.Derive(1)
	if in.MAC == nil {
		in.MAC = mac.New(in.Sim, in.Medium, n, macCfg, &macRand)
	} else {
		in.MAC.Reset(n, macCfg, &macRand)
	}
	if cfg.Obs != nil {
		// A default energy meter feeds the per-component joule counters
		// from Phase I on; meters only read traffic, never shape it.
		if meter, err := energy.NewMeter(n, energy.DefaultModel()); err == nil {
			meter.SetObs(cfg.Obs)
			in.Medium.SetMeter(meter)
		}
	}
	// Attach the tracer below the protocol too: the radio attributes
	// airtime and joules, the MAC attributes retries/backoffs/drops and
	// closes each frame's span when it leaves the queue.
	in.qt = cfg.QTrace
	in.Medium.SetQTrace(cfg.QTrace, energy.DefaultModel())
	in.MAC.SetQTrace(cfg.QTrace)
	in.roundSpan = qtrace.None
	in.Net = net
	in.Cfg = cfg
	// Phase I is one network-wide span (query 0). The flood draws from
	// root's label 2; the engine owns labels 1 and 3.
	phase1 := in.qt.Start(0, qtrace.None, -1, "phase1:tree-construction", float64(in.Sim.Now()))
	built := forest == nil
	if built {
		treeCfg := cfg.Tree
		treeCfg.Disabled = cfg.Disabled
		treeCfg.ExtraRoots = cfg.ExtraRoots
		var err error
		flood := root.Derive(2)
		if forest, err = in.builder.Build(in.Sim, in.MAC, net, treeCfg, m, &flood); err != nil {
			return err
		}
	}
	in.qt.End(phase1, float64(in.Sim.Now()))
	if err := forest.Check(n); err != nil {
		return fmt.Errorf("core: phase I produced overlapping trees: %w", err)
	}
	if len(forest.Heard) != m {
		return fmt.Errorf("core: phase I built %d trees, want %d", len(forest.Heard), m)
	}
	in.Trees = forest
	in.m = m
	keys := cfg.Keys
	if keys == nil {
		in.pairwise = *linksec.NewPairwise(seed ^ 0x69706461) // "ipda"
		keys = &in.pairwise
	}
	in.Keys = keys
	in.rand = root.Derive(3)
	in.round = 0
	in.era = 0
	if in.polluters == nil {
		in.polluters = make(map[topology.NodeID]int64)
	} else {
		clear(in.polluters)
	}
	if in.ciphers == nil {
		in.ciphers = linksec.NewCipherCache(keys, linksec.SuiteAESCTR)
	} else {
		in.ciphers.Reset(keys)
	}
	in.OnSlice = nil
	in.OnLocalShare = nil
	if in.dead != nil {
		if len(in.dead) == n {
			clear(in.dead)
		} else {
			in.dead = nil
		}
	}
	if in.skip != nil {
		if len(in.skip) == n {
			clear(in.skip)
		} else {
			in.skip = nil
		}
	}
	in.basisParent = append(in.basisParent[:0], forest.Parent...)
	in.treesDirty = false
	in.faults = nil
	in.faultRound = 0
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		inj, err := fault.NewInjector(n, *cfg.Faults, cfg.ExtraRoots)
		if err != nil {
			return err
		}
		inj.SetQTrace(cfg.QTrace)
		in.faults = inj
	}
	// A caller-supplied forest stands in for a flood that never ran, so it
	// publishes no roles.
	in.stats = Stats{}
	in.attachMetrics(cfg.Obs, built)
	in.publish()
	return nil
}

// Pollute registers a data-pollution attacker: whenever node id forwards
// an intermediate aggregation result, it adds delta. Registering delta = 0
// removes the attacker.
func (in *Instance) Pollute(id topology.NodeID, delta int64) {
	if delta == 0 {
		delete(in.polluters, id)
		return
	}
	in.polluters[id] = delta
}

// Kill fails node id at runtime: from the next round on it neither
// transmits nor processes receptions, but — unlike Config.Disabled — the
// trees were built while it was alive. Without Config.Repair its subtree
// silently vanishes, modeling the node-failure case the base station
// cannot tell apart from an attack ("either data pollution attacks or
// node failures, or both", Section III-A); with Repair, orphaned
// aggregators re-attach around it at the next round.
func (in *Instance) Kill(id topology.NodeID) {
	if in.dead == nil {
		in.dead = make([]bool, in.Net.N())
	}
	in.dead[id] = true
}

// Revive undoes Kill (e.g. after a battery swap in a what-if experiment).
func (in *Instance) Revive(id topology.NodeID) {
	if in.dead != nil {
		in.dead[id] = false
	}
}

var _ fault.Target = (*Instance)(nil)

// disabled reports whether a node is excluded from the protocol.
func (in *Instance) disabled(id topology.NodeID) bool {
	if len(in.Cfg.Disabled) > int(id) && in.Cfg.Disabled[id] {
		return true
	}
	return in.dead != nil && in.dead[id]
}

// Participants returns the nodes that take part in Phase II with the
// configured l: at least l aggregator neighbors on every tree, counting
// the node itself on its own tree. Base stations are not participants
// (they hold no reading).
func (in *Instance) Participants() []topology.NodeID {
	k := 0
	for i := 1; i < in.Net.N(); i++ {
		if in.participates(topology.NodeID(i)) {
			k++
		}
	}
	out := make([]topology.NodeID, 0, k)
	for i := 1; i < in.Net.N(); i++ {
		if id := topology.NodeID(i); in.participates(id) {
			out = append(out, id)
		}
	}
	return out
}

// participates is Participants' membership test.
func (in *Instance) participates(id topology.NodeID) bool {
	return !in.disabled(id) && in.Trees.Tree[id] != tree.Root && in.CanSlice(id)
}

// CanSlice reports whether node id has l slice targets on every tree,
// counting itself on its own tree (see tree.Forest.CanSlice).
func (in *Instance) CanSlice(id topology.NodeID) bool {
	return in.Trees.CanSlice(id, in.Cfg.Slices)
}

// RoundOutcome reports one additive aggregation round.
type RoundOutcome struct {
	Red, Blue    int64  // trees 0 and 1's totals S_r and S_b
	Participants int    // nodes that sliced this round
	Bytes        uint64 // radio bytes spent on the round
	Frames       uint64 // frames transmitted during the round

	// RedContributed and BlueContributed count the participants whose
	// complete slice set for that tree was assembled by live aggregators
	// — simulator-side ground truth the experiments use to tell "rejected
	// because polluted" from "rejected because partitioned": a partition
	// shows up as contributor counts diverging between the trees (or
	// collapsing on both) while pollution leaves them intact.
	RedContributed, BlueContributed int
	// Dead counts nodes down when the round ran; Skipped counts live
	// aggregators that sat the round out for lack of a disjoint
	// re-attachment; Repaired counts parent re-assignments applied.
	Dead, Skipped, Repaired int
	// Latency is the round's completion latency in simulated seconds:
	// the last Phase III aggregate arrival at a base station, measured
	// from the round's start (0 if nothing arrived). It is tracked
	// unconditionally so outcomes never depend on whether tracing or
	// other instrumentation is attached.
	Latency float64

	// M is the round's tree count; Totals[:M] holds every tree's total
	// (Totals[0] and Totals[1] are Red and Blue).
	M      int
	Totals [tree.MaxTrees]int64
	// Accepted, Value and Outliers are the base station's majority verdict
	// over Totals[:M] (see majority): whether a strict majority of the
	// trees agree within Th, the total of the lowest-index tree among them,
	// and the trees outside that cluster.
	Accepted bool
	Value    int64
	Outliers TreeSet
}

// Diff returns |S_b − S_r|, saturating at math.MaxInt64.
func (o RoundOutcome) Diff() int64 { return spread(o.Red, o.Blue) }

// Result reports one full query.
type Result struct {
	Spec     aggregate.Spec
	Outcomes []RoundOutcome // one per additive round (value rounds, then count round if any)
	Accepted bool           // every round's majority verdict accepted
	Value    float64        // the finalized statistic over the rounds' values; valid when Accepted

	// rounds backs Outcomes, so a query of up to len(rounds) rounds (every
	// aggregate.Spec needs at most 3) allocates nothing but its Result.
	rounds [4]RoundOutcome
}

// needsCount reports whether the spec's Finalize consumes a count that must
// itself be aggregated (privately) as an extra COUNT round.
func needsCount(s aggregate.Spec) bool {
	return s.Kind == aggregate.Average || s.Kind == aggregate.Variance
}

// Run answers one aggregation query. readings[i] is node i's private
// reading; index 0 (the base station) is ignored. Nodes that cannot
// participate contribute nothing, exactly as in the protocol.
func (in *Instance) Run(spec aggregate.Spec, readings []int64) (*Result, error) {
	if len(readings) != in.Net.N() {
		return nil, fmt.Errorf("core: %d readings for %d nodes", len(readings), in.Net.N())
	}
	valueRounds := spec.Rounds()
	total := valueRounds
	if needsCount(spec) {
		total++
	}
	res := &Result{Spec: spec, Accepted: true}
	res.Outcomes = res.rounds[:0]
	var sumBuf [2]int64 // aggregate.Spec.Rounds is 1 or 2
	sums := sumBuf[:valueRounds]
	var count uint32
	countSpec := aggregate.SpecFor(aggregate.Count)
	in.contribs = resizeCleared(in.contribs, in.Net.N())
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
				return nil, fmt.Errorf("core: node %d: %w", i, err)
			}
			contribs[i] = c
		}
		out, err := in.RunRound(contribs)
		if err != nil {
			return nil, err
		}
		res.Outcomes = append(res.Outcomes, out)
		res.Accepted = res.Accepted && out.Accepted
		if round < valueRounds {
			sums[round] = out.Value
		} else {
			count = uint32(out.Value)
		}
	}
	if !needsCount(spec) && len(res.Outcomes) > 0 {
		count = uint32(res.Outcomes[0].Participants)
	}
	if res.Accepted {
		v, err := spec.Finalize(sums, count)
		if err != nil {
			return nil, fmt.Errorf("core: finalize: %w", err)
		}
		res.Value = v
	}
	return res, nil
}

// recordVerdict records the base station's verdict on the round RunRound
// just ran: the verdict and outlier counts and, with tracing, the verify
// instant every base station's pending aggregate spans re-parent under.
func (in *Instance) recordVerdict(out *RoundOutcome) {
	if out.Accepted {
		in.stats.RoundsAccepted++
	} else {
		in.stats.RoundsRejected++
	}
	in.stats.OutlierTrees += uint64(out.Outliers.Len())
	if in.qt != nil {
		// The verify instant is the apex of the round's causal tree: the
		// base stations' pending child aggregate spans re-parent under it,
		// so every aggregation subtree hangs off the verdict.
		verdict := "verify:accepted"
		if !out.Accepted {
			verdict = "verify:rejected"
		}
		v := in.qt.Instant(uint32(uint16(in.round)), in.roundSpan, 0, verdict, float64(in.Sim.Now()))
		for i := 0; i < in.Net.N() && i < len(in.pendingAgg); i++ {
			if in.Trees.Tree[i] != tree.Root {
				continue
			}
			for _, child := range in.pendingAgg[i] {
				in.qt.SetParent(child, v)
			}
			in.pendingAgg[i] = in.pendingAgg[i][:0]
		}
	}
}

// RunSum is shorthand for a plain SUM query.
func (in *Instance) RunSum(readings []int64) (*Result, error) {
	return in.Run(aggregate.SpecFor(aggregate.Sum), readings)
}

// RunCount is shorthand for a COUNT query (every reading contributes 1).
func (in *Instance) RunCount() (*Result, error) {
	n := in.Net.N()
	if cap(in.zeros) < n {
		in.zeros = make([]int64, n)
	}
	return in.Run(aggregate.SpecFor(aggregate.Count), in.zeros[:n])
}

// sliceNonce builds a unique nonce per (key era, round, direction, tree,
// slice): the high bit of the low byte encodes direction so both directions
// of a shared key never reuse a keystream, and the top byte carries the
// tree, because a base station roots every tree and a neighbor of it can
// pick it as a target on several trees at the same slice index. round is
// the wire round — the low 16 bits of the cumulative counter — so the
// nonce alone repeats every 65,536 rounds; uniqueness across that horizon
// comes from the per-era key rotation in advanceRound, making (era, nonce)
// injective by construction for slice indices below 128.
func sliceNonce(round uint16, src, dst topology.NodeID, t, idx int) uint32 {
	dir := uint32(0)
	if src > dst {
		dir = 0x80
	}
	return uint32(t)<<24 | uint32(round)<<8 | dir | uint32(idx&0x7f)
}

// Rounds returns the cumulative additive rounds this deployment has run
// since its last Reset. Epoch pipelines report it; the wire carries only
// its low 16 bits.
func (in *Instance) Rounds() uint64 { return in.round }

// KeyEra returns the current link-key era: round >> 16. Era 0 seals with
// Config.Keys directly; each later era re-derives every link key so slice
// nonces — which carry only the 16-bit wire round — never repeat under
// the same key.
func (in *Instance) KeyEra() uint64 { return in.era }

// advanceRound bumps the cumulative round counter and returns the wire
// round. Crossing a 16-bit boundary rotates the key era: the cipher cache
// is rebound to era-qualified keys (a pure key copy per link), closing
// the nonce-wraparound keystream reuse a long-running network would
// otherwise hit at round 65,536.
func (in *Instance) advanceRound() uint16 {
	in.round++
	if era := in.round >> 16; era != in.era {
		in.era = era
		in.ciphers.Reset(linksec.EraKeys(in.Keys, era))
	}
	return uint16(in.round)
}

// RunRound executes Phases II and III once for the given per-node additive
// contributions (index 0 and other base stations are ignored), decides the
// base station's majority verdict over the tree totals and records it,
// publishing the round's counts to the metrics registry.
func (in *Instance) RunRound(contribs []int64) (RoundOutcome, error) {
	n, m := in.Net.N(), in.m
	round := in.advanceRound()
	if in.faults != nil {
		// Faults fire between rounds: the schedule advances before the
		// slicing window opens, never mid-phase.
		in.faults.Advance(in.faultRound, float64(in.Sim.Now()), in)
		in.faultRound++
	}
	dead, repaired, skipped, err := in.prepareTrees()
	if err != nil {
		in.publish()
		return RoundOutcome{}, err
	}
	startBytes := in.Medium.TotalBytes()
	startFrames := in.Medium.Stats().FramesSent

	in.resetRoundState()

	in.installReceivers(round)

	// Phase II: participants slice at random offsets inside the window,
	// which opens for every node at the round's start. Every plan is drawn
	// before any slice is sealed or scheduled, which fixes the rng order.
	participants := 0
	t0 := in.Sim.Now()
	in.roundSpan = qtrace.None
	if in.qt != nil {
		q := uint32(round)
		in.roundSpan = in.qt.Start(q, qtrace.None, -1, "round", float64(t0))
		if dead > 0 {
			d := in.qt.Instant(q, in.roundSpan, -1, "tree:dead", float64(t0))
			in.qt.SetValue(d, float64(dead))
		}
		if skipped > 0 {
			s := in.qt.Instant(q, in.roundSpan, -1, "tree:skipped", float64(t0))
			in.qt.SetValue(s, float64(skipped))
		}
		if repaired > 0 {
			r := in.qt.Instant(q, in.roundSpan, -1, "tree:repaired", float64(t0))
			in.qt.SetValue(r, float64(repaired))
		}
	}
	for i := 1; i < n; i++ {
		id := topology.NodeID(i)
		p := &in.plans[i]
		p.active = false
		if in.disabled(id) || in.skipping(id) || in.Trees.Tree[id] == tree.Root {
			continue
		}
		for t := range in.cands {
			in.cands[t] = in.keyedTargets(in.cands[t][:0], id, in.Trees.Heard[t][id])
		}
		if !p.targets.Choose(id, in.Trees.Tree[id], in.cands, in.Cfg.Slices, &in.rand) {
			continue
		}
		p.shares = p.shares[:0]
		for range m {
			p.shares = in.split(p.shares, contribs[i])
		}
		p.active = true
	}
	l := in.Cfg.Slices
	for i := 1; i < n; i++ {
		id := topology.NodeID(i)
		p := &in.plans[i]
		if !p.active {
			continue
		}
		participants++
		for t, targets := range p.targets.Trees {
			in.planned[i*m+t] = uint16(len(targets))
		}
		slSpan := qtrace.None
		if in.qt != nil {
			// The node's slicing window has a statically known extent, so
			// the span is closed up front instead of via an end event that
			// would perturb the simulation's event sequence.
			slSpan = in.qt.Start(uint32(round), in.roundSpan, int32(id), "slicing", float64(t0))
			in.qt.End(slSpan, float64(t0+in.Cfg.SliceWindow))
		}
		in.sealReqs = in.sealReqs[:0]
		in.sealColors = in.sealColors[:0]
		for t, targets := range p.targets.Trees {
			in.collectSlices(round, id, t, targets, p.shares[t*l:(t+1)*l])
		}
		in.ciphers.SealBatch(in.sealReqs)
		in.scheduleSealed(t0, round, id, slSpan)
	}

	// Phase III: deepest aggregators first.
	t1 := t0 + in.Cfg.SliceWindow + 0.5 // drain margin for queued slices
	maxHop := uint16(0)
	for i := 1; i < n; i++ {
		if in.Trees.Tree[i] >= 0 && in.Trees.Hop[i] > maxHop {
			maxHop = in.Trees.Hop[i]
		}
	}
	for i := 1; i < n; i++ {
		id := topology.NodeID(i)
		if in.Trees.Tree[id] < 0 {
			continue
		}
		slot := eventsim.Time(maxHop-in.Trees.Hop[id]) * in.Cfg.AggSlot
		jitter := eventsim.Time(in.rand.Float64()) * in.Cfg.AggSlot / 2
		ev := in.getAggEvent()
		ev.id, ev.round = id, round
		in.Sim.At(t1+slot+jitter, ev.fire)
	}

	deadline := t1 + eventsim.Time(maxHop+2)*in.Cfg.AggSlot + 1.0
	if in.qt != nil {
		in.qt.End(in.roundSpan, float64(deadline))
		in.phaseSpan(round, "phase2:report-and-assemble", t0, t1)
		in.phaseSpan(round, "phase3:tree-aggregation", t1, deadline)
	}
	in.Sim.Run(deadline)

	// Fuse collections across every base station: slices addressed to a
	// root directly plus the partial sums its tree children delivered.
	var totals [tree.MaxTrees]int64
	for t := range m {
		totals[t] = in.bsSum[t]
	}
	for i := 0; i < n; i++ {
		if in.Trees.Tree[i] == tree.Root {
			for t := range m {
				totals[t] += in.asm[i*m+t].Total()
			}
		}
	}
	var contributed [2]int // trees 0 and 1 only: the outcome's red/blue fields
	for i := 1; i < n; i++ {
		for t := range contributed {
			if k := i*m + t; in.planned[k] > 0 && in.delivered[k] >= in.planned[k] {
				contributed[t]++
			}
		}
	}
	out := RoundOutcome{
		Red:             totals[0],
		Blue:            totals[1],
		Participants:    participants,
		Bytes:           in.Medium.TotalBytes() - startBytes,
		Frames:          in.Medium.Stats().FramesSent - startFrames,
		RedContributed:  contributed[0],
		BlueContributed: contributed[1],
		Dead:            dead,
		Skipped:         skipped,
		Repaired:        repaired,
		Latency:         float64(in.lastBSArrival - t0),
		M:               m,
		Totals:          totals,
	}
	out.Accepted, out.Value, out.Outliers = majority(totals[:m], in.Cfg.Threshold)
	in.recordVerdict(&out)
	in.publish()
	return out, nil
}

// skipping reports whether a live aggregator sits the current round out.
func (in *Instance) skipping(id topology.NodeID) bool {
	return in.skip != nil && in.skip[id]
}

// availTarget reports whether a slice-target candidate should be offered
// to Targets.Choose. With Repair enabled, senders model the liveness
// knowledge repair presumes and steer their shares away from dead or
// skipping aggregators; without it they stay oblivious and shares sent to
// dead neighbors are simply lost.
func (in *Instance) availTarget(c topology.NodeID) bool {
	if !in.Cfg.Repair {
		return true
	}
	return !in.disabled(c) && !in.skipping(c)
}

// prepareTrees restores the pristine Phase I parents and, when repair is
// enabled and nodes are down, re-attaches orphaned aggregators for the
// coming round. It returns the dead-node count and the repair tallies.
func (in *Instance) prepareTrees() (dead, repaired, skipped int, err error) {
	if in.treesDirty {
		copy(in.Trees.Parent, in.basisParent)
		in.treesDirty = false
	}
	if in.skip != nil {
		clear(in.skip)
	}
	if in.dead != nil {
		for i := 1; i < in.Net.N(); i++ {
			if in.dead[i] {
				dead++
			}
		}
	}
	if dead == 0 || !in.Cfg.Repair {
		return dead, 0, 0, nil
	}
	out, rerr := in.Trees.RepairDead(in.disabled)
	if rerr != nil {
		return dead, 0, 0, fmt.Errorf("core: round repair: %w", rerr)
	}
	in.treesDirty = true
	if in.skip == nil {
		in.skip = make([]bool, in.Net.N())
	}
	for _, id := range out.Skipped {
		in.skip[id] = true
	}
	in.stats.Repairs += uint64(out.Reattached)
	in.stats.RoundSkips += uint64(len(out.Skipped))
	return dead, out.Reattached, len(out.Skipped), nil
}

// resetRoundState prepares the reusable per-round buffers: they grow (and
// keep their contents' capacity) on demand and are cleared in place, so
// steady-state rounds — including rounds after a Reset to a differently
// sized network — stay off the allocator.
func (in *Instance) resetRoundState() {
	n, m := in.Net.N(), in.m
	in.asm = resizeCleared(in.asm, n*m)
	if cap(in.plans) < n {
		in.plans = append(in.plans[:cap(in.plans)], make([]slicePlan, n-cap(in.plans))...)
	}
	in.plans = in.plans[:n]
	if cap(in.cands) < m {
		in.cands = append(in.cands[:cap(in.cands)], make([][]topology.NodeID, m-cap(in.cands))...)
	}
	in.cands = in.cands[:m]
	in.childSum = resizeCleared(in.childSum, n)
	in.childCount = resizeCleared(in.childCount, n)
	in.planned = resizeCleared(in.planned, n*m)
	in.delivered = resizeCleared(in.delivered, n*m)
	in.bsSum = resizeCleared(in.bsSum, m)
	// No events have run since the round started, so Now() is the round's
	// t0: a round with no base-station arrival reports Latency 0.
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
}

// resizeCleared returns s resized to n elements, all zero, reusing its
// backing array when it suffices.
func resizeCleared[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// getAggEvent pops a pooled Phase III send event (or builds one, with its
// fire closure, on first use). fireAggregate returns it to the pool.
func (in *Instance) getAggEvent() *aggEvent {
	if k := len(in.aggFree); k > 0 {
		ev := in.aggFree[k-1]
		in.aggFree = in.aggFree[:k-1]
		return ev
	}
	ev := &aggEvent{in: in}
	ev.fire = func() { ev.in.fireAggregate(ev) }
	return ev
}

func (in *Instance) fireAggregate(ev *aggEvent) {
	id, round := ev.id, ev.round
	in.aggFree = append(in.aggFree, ev)
	in.sendAggregate(round, id)
}

// getSliceEvent pops a pooled Phase II send event. fireSlice returns it to
// the pool right after the MAC copies the packet out.
func (in *Instance) getSliceEvent() *sliceEvent {
	if k := len(in.sliceFree); k > 0 {
		ev := in.sliceFree[k-1]
		in.sliceFree = in.sliceFree[:k-1]
		return ev
	}
	ev := &sliceEvent{in: in}
	ev.fire = func() { ev.in.fireSlice(ev) }
	return ev
}

func (in *Instance) fireSlice(ev *sliceEvent) {
	in.MAC.Send(ev.src, &ev.pkt)
	slices := 1
	if ev.pkt.Kind == packet.KindSliceBatch {
		slices = len(ev.pkt.Entries)
	}
	in.sliceFree = append(in.sliceFree, ev)
	in.stats.SlicesSent += uint64(slices)
}

// phaseSpan records one network-wide protocol phase of round under the
// round span; its extent is statically known when the round is scheduled.
func (in *Instance) phaseSpan(round uint16, name string, begin, end eventsim.Time) {
	s := in.qt.Start(uint32(round), in.roundSpan, -1, name, float64(begin))
	in.qt.End(s, float64(end))
}

// split appends one tree's worth of additive shares for a contribution.
func (in *Instance) split(dst []int64, value int64) []int64 {
	if in.Cfg.ShareSpread > 0 {
		return slicing.SplitBoundedAppend(dst, value, in.Cfg.Slices, in.Cfg.ShareSpread, &in.rand)
	}
	return slicing.SplitAppend(dst, value, in.Cfg.Slices, &in.rand)
}

// keyedTargets appends the aggregator candidates the node shares a link
// key with (a random-predistribution scheme may leave gaps) to dst.
func (in *Instance) keyedTargets(dst []topology.NodeID, id topology.NodeID, cands []topology.NodeID) []topology.NodeID {
	for _, c := range cands {
		if !in.availTarget(c) {
			continue
		}
		if in.ciphers.HasKey(id, c) {
			dst = append(dst, c)
		}
	}
	return dst
}

// collectSlices stages tree t's shares from src for the round's SealBatch:
// local shares fold in immediately (they never touch the air, Section
// III-C.1), remote shares append seal requests. Observation callbacks fire
// here in target order — identical to the former per-share Seal loop — so
// eavesdropper state and rng draws are order-preserved.
func (in *Instance) collectSlices(round uint16, src topology.NodeID, t int, targets []topology.NodeID, shares []int64) {
	color := packet.TreeColor(t)
	for idx, dst := range targets {
		if dst == src {
			in.addShare(src, color, src, shares[idx])
			in.stats.SlicesLocal++
			if in.OnLocalShare != nil {
				in.OnLocalShare(src, color, shares[idx])
			}
			continue
		}
		if !in.ciphers.HasKey(src, dst) {
			continue // filtered earlier; defensive
		}
		if in.OnSlice != nil {
			in.OnSlice(src, dst, color, shares[idx])
		}
		in.sealReqs = append(in.sealReqs, linksec.SealReq{
			Src: src, Dst: dst,
			Nonce: sliceNonce(round, src, dst, t, idx),
			Value: shares[idx],
		})
		in.sealColors = append(in.sealColors, color)
	}
}

// scheduleSealed schedules one pooled send event per sealed request at a
// uniform random offset in the slicing window. Offsets are drawn in
// collection order (reds then blues, target order), matching the rng
// consumption of the former interleaved loop draw for draw. With tracing,
// each slice gets a span (child of the node's slicing span) beginning at
// its scheduled send time; the MAC closes it when the frame resolves.
func (in *Instance) scheduleSealed(t0 eventsim.Time, round uint16, src topology.NodeID, parent qtrace.Ref) {
	if in.Cfg.Coalesce {
		in.scheduleSealedCoalesced(t0, round, src, parent)
		return
	}
	for i := range in.sealReqs {
		r := &in.sealReqs[i]
		if !r.OK {
			continue
		}
		ev := in.getSliceEvent()
		ev.src = src
		ev.pkt = packet.Packet{
			Header: packet.Header{Kind: packet.KindSlice, Src: int32(src), Dst: int32(r.Dst), Round: round},
			Cipher: r.Sealed.Cipher,
			Nonce:  r.Sealed.Nonce,
			Tag:    r.Sealed.Tag,
			Color:  in.sealColors[i],
		}
		offset := eventsim.Time(in.rand.Float64()) * in.Cfg.SliceWindow
		if in.qt != nil {
			ref := in.qt.Start(uint32(round), parent, int32(src), "slice", float64(t0+offset))
			in.qt.SetPeer(ref, int32(r.Dst))
			ev.pkt.TraceQ = round
			ev.pkt.TraceSpan = uint32(ref)
		}
		in.Sim.At(t0+offset, ev.fire)
	}
}

// scheduleSealedCoalesced is the Coalesce-mode counterpart: all of the
// node's sealed remote shares — both trees — pack into one
// packet.KindSliceBatch frame anchored (addressed and ACKed) at the first
// target, with one random send offset for the whole frame. The slices
// themselves are sealed per-link exactly as in the per-slice path; only
// the framing changes. A node with a single remote share sends a plain
// KindSlice frame — a one-entry batch would just be 5 bytes of overhead.
func (in *Instance) scheduleSealedCoalesced(t0 eventsim.Time, round uint16, src topology.NodeID, parent qtrace.Ref) {
	sealed := 0
	for i := range in.sealReqs {
		if in.sealReqs[i].OK {
			sealed++
		}
	}
	if sealed == 0 {
		return
	}
	ev := in.getSliceEvent()
	ev.src = src
	if sealed == 1 {
		for i := range in.sealReqs {
			r := &in.sealReqs[i]
			if !r.OK {
				continue
			}
			ev.pkt = packet.Packet{
				Header: packet.Header{Kind: packet.KindSlice, Src: int32(src), Dst: int32(r.Dst), Round: round},
				Cipher: r.Sealed.Cipher,
				Nonce:  r.Sealed.Nonce,
				Tag:    r.Sealed.Tag,
				Color:  in.sealColors[i],
			}
			break
		}
	} else {
		ev.entries = ev.entries[:0]
		anchor := int32(-1)
		for i := range in.sealReqs {
			r := &in.sealReqs[i]
			if !r.OK {
				continue
			}
			if anchor < 0 {
				anchor = int32(r.Dst)
			}
			ev.entries = append(ev.entries, packet.SliceEntry{
				Dst:    int32(r.Dst),
				Cipher: r.Sealed.Cipher,
				Nonce:  r.Sealed.Nonce,
				Tag:    r.Sealed.Tag,
				Color:  in.sealColors[i],
			})
		}
		ev.pkt = packet.Packet{
			Header: packet.Header{Kind: packet.KindSliceBatch, Src: int32(src), Dst: anchor, Round: round},
		}
		ev.pkt.Entries = ev.entries
	}
	offset := eventsim.Time(in.rand.Float64()) * in.Cfg.SliceWindow
	if in.qt != nil {
		ref := in.qt.Start(uint32(round), parent, int32(src), "slice", float64(t0+offset))
		in.qt.SetPeer(ref, ev.pkt.Dst)
		if n := len(ev.pkt.Entries); n > 0 {
			in.qt.SetValue(ref, float64(n))
		}
		ev.pkt.TraceQ = round
		ev.pkt.TraceSpan = uint32(ref)
	}
	in.Sim.At(t0+offset, ev.fire)
}

// addShare folds a decrypted share into the node's assembler for the
// share's tree and credits the origin's delivery tally.
func (in *Instance) addShare(id topology.NodeID, color packet.Color, from topology.NodeID, share int64) {
	t := color.Tree()
	if t < 0 || t >= in.m {
		return
	}
	in.asm[int(id)*in.m+t].Add(share)
	in.delivered[int(from)*in.m+t]++
}

// installReceivers wires the packet handler for one round: a single
// dispatch closure shared by every node, filtering on the current round
// (in.round is constant while a round's events drain, so this matches the
// former per-round captured-round closures exactly).
func (in *Instance) installReceivers(round uint16) {
	_ = round // the filter reads in.round, which equals round for the whole drain
	if in.dispatchFn == nil {
		in.dispatchFn = func(self topology.NodeID, p *packet.Packet) {
			if p.Round != uint16(in.round) {
				return
			}
			switch p.Kind {
			case packet.KindSlice:
				in.onSlice(self, p)
			case packet.KindSliceBatch:
				in.onSliceBatch(self, p)
			case packet.KindAggregate:
				in.onAggregate(self, p)
			}
		}
	}
	for i := 0; i < in.Net.N(); i++ {
		in.MAC.SetHandler(topology.NodeID(i), in.dispatchFn)
	}
}

func (in *Instance) onSlice(self topology.NodeID, p *packet.Packet) {
	if in.disabled(self) {
		return
	}
	cipher, ok := in.ciphers.Link(topology.NodeID(p.Src), self)
	if !ok {
		return
	}
	share, err := cipher.Open(linksec.Sealed{Cipher: p.Cipher, Nonce: p.Nonce, Tag: p.Tag})
	if err != nil {
		in.stats.SlicesRejected++
		if in.qt != nil {
			in.qt.Instant(uint32(p.Round), qtrace.Ref(p.TraceSpan), int32(self), "slice:rejected", float64(in.Sim.Now()))
		}
		return // forged or corrupted; drop
	}
	in.addShare(self, p.Color, topology.NodeID(p.Src), share)
	in.stats.SlicesAssembled++
	if in.qt != nil {
		in.qt.Instant(uint32(p.Round), qtrace.Ref(p.TraceSpan), int32(self), "slice:assembled", float64(in.Sim.Now()))
	}
}

// onSliceBatch handles a coalesced multi-slice frame: the node scans the
// entries for the ones addressed to it (there is at most one per tree per
// sender) and opens each with the same per-link cipher a standalone slice
// would use. Entries for other nodes are skipped — their targets decode
// the same frame promiscuously and pick out their own.
func (in *Instance) onSliceBatch(self topology.NodeID, p *packet.Packet) {
	if in.disabled(self) {
		return
	}
	for i := range p.Entries {
		e := &p.Entries[i]
		if e.Dst != int32(self) {
			continue
		}
		cipher, ok := in.ciphers.Link(topology.NodeID(p.Src), self)
		if !ok {
			continue
		}
		share, err := cipher.Open(linksec.Sealed{Cipher: e.Cipher, Nonce: e.Nonce, Tag: e.Tag})
		if err != nil {
			in.stats.SlicesRejected++
			if in.qt != nil {
				in.qt.Instant(uint32(p.Round), qtrace.Ref(p.TraceSpan), int32(self), "slice:rejected", float64(in.Sim.Now()))
			}
			continue // forged or corrupted; drop
		}
		in.addShare(self, e.Color, topology.NodeID(p.Src), share)
		in.stats.SlicesAssembled++
		if in.qt != nil {
			in.qt.Instant(uint32(p.Round), qtrace.Ref(p.TraceSpan), int32(self), "slice:assembled", float64(in.Sim.Now()))
		}
	}
}

func (in *Instance) onAggregate(self topology.NodeID, p *packet.Packet) {
	if in.disabled(self) {
		return
	}
	t := p.Color.Tree()
	if t < 0 || t >= in.m {
		return
	}
	if in.Trees.Tree[self] == tree.Root {
		in.bsSum[t] += p.Value
		in.lastBSArrival = in.Sim.Now()
		in.noteAggArrival(self, p)
		return
	}
	if in.Trees.Tree[self] != t {
		return // cross-tree frames are ignored, preserving disjointness
	}
	in.childSum[self] += p.Value
	in.childCount[self] += p.Count
	in.noteAggArrival(self, p)
}

// noteAggArrival records a traced aggregate arrival: an ":rx" instant
// under the child's span, and the child span itself queued for
// re-parenting when this node forwards its own partial sum (or, at a base
// station, when the round's verify instant is recorded).
func (in *Instance) noteAggArrival(self topology.NodeID, p *packet.Packet) {
	if in.qt == nil {
		return
	}
	in.qt.Instant(uint32(p.Round), qtrace.Ref(p.TraceSpan), int32(self), "aggregate:rx", float64(in.Sim.Now()))
	if int(self) < len(in.pendingAgg) {
		in.pendingAgg[self] = append(in.pendingAgg[self], qtrace.Ref(p.TraceSpan))
	}
}

// sendAggregate emits node id's Phase III partial sum to its tree parent.
func (in *Instance) sendAggregate(round uint16, id topology.NodeID) {
	if in.disabled(id) || in.skipping(id) {
		return
	}
	t := in.Trees.Tree[id]
	if t < 0 {
		return
	}
	value := in.asm[int(id)*in.m+t].Total() + in.childSum[id]
	if delta, polluted := in.polluters[id]; polluted {
		value += delta
	}
	parent := in.Trees.Parent[id]
	if parent == topology.None {
		return
	}
	pkt := packet.Packet{
		Header: packet.Header{Kind: packet.KindAggregate, Src: int32(id), Dst: int32(parent), Round: round},
		Value:  value,
		Count:  in.childCount[id] + 1,
		Color:  packet.TreeColor(t),
	}
	if in.qt != nil {
		// The node's aggregate span adopts the child aggregate spans that
		// fed it, so the exported trace mirrors the aggregation tree and
		// subtree rollups fall out of plain parent-chasing.
		agg := in.qt.Start(uint32(round), in.roundSpan, int32(id), aggSpanNames[t], float64(in.Sim.Now()))
		in.qt.SetPeer(agg, int32(parent))
		if int(id) < len(in.pendingAgg) {
			for _, child := range in.pendingAgg[id] {
				in.qt.SetParent(child, agg)
			}
			in.pendingAgg[id] = in.pendingAgg[id][:0]
		}
		pkt.TraceQ = round
		pkt.TraceSpan = uint32(agg)
	}
	in.MAC.Send(id, &pkt)
	in.stats.AggregatesSent++
}
