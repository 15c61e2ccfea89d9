// Package mtree generalizes iPDA from two disjoint aggregation trees to m
// of them — the extension Section III-B sketches ("the disjoint
// aggregation tree construction phase can be easily generalized to build
// multiple aggregation trees (m > 2); however ... the network must be very
// dense") — and upgrades the base station's integrity check from
// two-way agreement to majority voting.
//
// Majority voting addresses the paper's stated future work (Section VI,
// collusive attacks): with m = 2, two colluding aggregators on different
// trees that apply the same delta fool the |S_b − S_r| ≤ Th check; with
// m = 3 the honest third tree outvotes them, the base station still
// recovers the true total, and it identifies which trees were polluted.
//
// Phase I generalizes the paper's Equation (1): upon hearing HELLOs from
// all m trees, a node becomes an aggregator with probability
// p = min(1, k/ΣN_i) and joins tree t with probability proportional to
// (ΣN − N_t) — the under-represented trees are favored, exactly as red
// and blue balance each other in the m = 2 protocol. Phases II and III run
// unchanged per tree: l slices to each of the m trees (m·l − 1
// transmissions per aggregator), then per-tree additive aggregation.
package mtree

import (
	"fmt"
	"sort"

	"github.com/ipda-sim/ipda/internal/energy"
	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/linksec"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/qtrace"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/slicing"
	"github.com/ipda-sim/ipda/internal/topology"
)

// NoTree marks leaves and undecided nodes.
const NoTree = -1

// Config parameterizes an m-tree instance.
type Config struct {
	// Trees is m, the number of node-disjoint aggregation trees (>= 2).
	Trees int
	// Slices is l, the slices sent to each tree.
	Slices int
	// Threshold is the per-pair agreement threshold for majority voting.
	Threshold int64
	// K is the aggregator budget of the generalized Equation (1).
	K int
	// DecisionDelay and Deadline bound Phase I; SliceWindow and AggSlot
	// schedule Phases II and III as in the core protocol.
	DecisionDelay eventsim.Time
	Deadline      eventsim.Time
	SliceWindow   eventsim.Time
	AggSlot       eventsim.Time
	// ShareSpread bounds slice magnitudes (0 = full ring).
	ShareSpread int64
	// Suite selects the keystream/tag primitive slices are sealed with
	// (zero value = batched AES-CTR; see linksec.Suite).
	Suite linksec.Suite
	// MAC configures the link layer; the zero value selects
	// mac.DefaultConfig(), so existing callers are unchanged.
	MAC mac.Config
	// Obs is the optional instrumentation sink (see core.Config.Obs).
	Obs *obs.Sink
	// QTrace is the optional causal per-query tracer (see
	// core.Config.QTrace); nil disables tracing and never changes a run.
	QTrace *qtrace.Tracer
}

// DefaultConfig returns m-tree defaults matching the core protocol's.
func DefaultConfig(m int) Config {
	return Config{
		Trees:         m,
		Slices:        2,
		Threshold:     5,
		K:             4,
		DecisionDelay: 0.05,
		Deadline:      10,
		SliceWindow:   2.0,
		AggSlot:       0.25,
		ShareSpread:   4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Trees < 2 || c.Trees > 8 {
		return fmt.Errorf("mtree: Trees must be in [2, 8], got %d", c.Trees)
	}
	if c.Slices < 1 {
		return fmt.Errorf("mtree: Slices must be >= 1, got %d", c.Slices)
	}
	if c.Threshold < 0 {
		return fmt.Errorf("mtree: Threshold must be >= 0, got %d", c.Threshold)
	}
	if c.K < c.Trees {
		return fmt.Errorf("mtree: K must be >= Trees, got %d < %d", c.K, c.Trees)
	}
	if c.DecisionDelay <= 0 || c.Deadline <= 0 || c.SliceWindow <= 0 || c.AggSlot <= 0 {
		return fmt.Errorf("mtree: time parameters must be positive")
	}
	if c.ShareSpread < 0 {
		return fmt.Errorf("mtree: ShareSpread must be >= 0")
	}
	return nil
}

// Instance is one deployed m-tree network.
type Instance struct {
	Net *topology.Network
	Cfg Config

	// TreeOf[i] is the tree node i aggregates on, or NoTree.
	TreeOf []int
	// Parent and Hop describe each aggregator's position on its tree.
	Parent []topology.NodeID
	Hop    []uint16
	// Heard[i][t] lists the tree-t aggregators node i heard during
	// Phase I (slice-target candidates).
	Heard [][][]topology.NodeID

	sim     *eventsim.Sim
	medium  *radio.Medium
	mac     *mac.MAC
	keys    linksec.Scheme
	ciphers *linksec.CipherCache // per-link sealing state over keys
	rand    *rng.Stream
	// round is the cumulative lifetime round counter; only its low 16
	// bits go on the air, and each 16-bit wraparound rotates the key era
	// (see core.Instance and linksec.EraKeys) so slice nonces never
	// repeat under one key.
	round uint64
	era   uint64

	polluters map[topology.NodeID]int64

	// Per-round state, grown on demand and cleared in place per round.
	assembled  [][]*slicing.Assembler // [node][tree]
	childSum   []int64
	childCount []uint32
	bsSum      []int64
	bsCount    []uint32
	dispatchFn mac.Handler
	// sealReqs stages one (node, tree)'s remote shares for a SealBatch
	// call. Batching is per tree, not per node: the rng draws for tree
	// t+1's target choice happen after tree t's send offsets, so a wider
	// batch would reorder rand consumption and change results. The same
	// ordering constraint is why slice-coalesced framing (core's
	// Config.Coalesce) is not wired here: a node-wide multi-slice frame
	// would need every tree's target chosen before any send offset is
	// drawn, reordering the m-tree rand stream against its goldens.
	sealReqs []linksec.SealReq

	// Query-tracing state (see core.Instance).
	qt         *qtrace.Tracer
	roundSpan  qtrace.Ref
	pendingAgg [][]qtrace.Ref
}

// aggSpanNames maps tree index to its aggregate span name without a
// per-send string concatenation (Trees is capped at 8 by Validate).
var aggSpanNames = [8]string{
	"aggregate:t0", "aggregate:t1", "aggregate:t2", "aggregate:t3",
	"aggregate:t4", "aggregate:t5", "aggregate:t6", "aggregate:t7",
}

// treeColor maps tree index 0..m-1 onto the packet Color byte (1..m).
func treeColor(t int) packet.Color { return packet.Color(t + 1) }

func colorTree(c packet.Color) int { return int(c) - 1 }

// New deploys the instance and runs the generalized Phase I.
func New(net *topology.Network, cfg Config, seed uint64) (*Instance, error) {
	in := &Instance{}
	if err := in.Reset(net, cfg, seed); err != nil {
		return nil, err
	}
	return in, nil
}

// Reset re-deploys the instance over net exactly as New(net, cfg, seed)
// would, reusing the simulator, medium, MAC tables, cipher pool, and round
// buffers the previous deployment grew. Prior results are invalidated.
func (in *Instance) Reset(net *topology.Network, cfg Config, seed uint64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	root := rng.New(seed)
	if in.sim == nil {
		in.sim = eventsim.New()
		in.medium = radio.New(in.sim, net, radio.PaperRate)
	} else {
		in.sim.Reset()
		in.medium.Reset(net)
	}
	macCfg := cfg.MAC
	if macCfg == (mac.Config{}) {
		macCfg = mac.DefaultConfig()
	}
	if in.mac == nil {
		in.mac = mac.New(in.sim, in.medium, net.N(), macCfg, root.Split(1))
	} else {
		in.mac.Reset(net.N(), macCfg, root.Split(1))
	}
	in.Net = net
	in.Cfg = cfg
	in.keys = linksec.NewPairwise(seed ^ 0x6d74726565)
	in.rand = root.Split(2)
	in.round = 0
	in.era = 0
	if in.polluters == nil {
		in.polluters = make(map[topology.NodeID]int64)
	} else {
		clear(in.polluters)
	}
	if in.ciphers == nil {
		in.ciphers = linksec.NewCipherCache(in.keys, cfg.Suite)
	} else {
		in.ciphers.Reset(in.keys, cfg.Suite)
	}
	if cfg.Obs != nil {
		in.medium.SetObs(cfg.Obs)
		in.mac.SetObs(cfg.Obs)
	}
	in.qt = cfg.QTrace
	in.medium.SetQTrace(cfg.QTrace, energy.DefaultModel())
	in.mac.SetQTrace(cfg.QTrace)
	in.roundSpan = qtrace.None
	buildStart := float64(in.sim.Now())
	in.buildTrees(root.Split(3))
	if cfg.Obs != nil {
		cfg.Obs.Span(obs.TrackGlobal, "phase1:mtree-construction", buildStart, float64(in.sim.Now()), 0)
	}
	return in.checkDisjoint()
}

// buildTrees runs the generalized Phase I flood.
func (in *Instance) buildTrees(roleRand *rng.Stream) {
	n := in.Net.N()
	m := in.Cfg.Trees
	in.TreeOf = make([]int, n)
	in.Parent = make([]topology.NodeID, n)
	in.Hop = make([]uint16, n)
	in.Heard = make([][][]topology.NodeID, n)
	type state struct {
		minHop  []uint16
		parent  []topology.NodeID
		armed   bool
		decided bool
	}
	states := make([]*state, n)
	for i := range states {
		in.TreeOf[i] = NoTree
		in.Parent[i] = topology.None
		in.Heard[i] = make([][]topology.NodeID, m)
		st := &state{
			minHop: make([]uint16, m),
			parent: make([]topology.NodeID, m),
		}
		for t := range st.parent {
			st.parent[t] = topology.None
		}
		states[i] = st
	}
	states[0].decided = true

	sendHello := func(src topology.NodeID, t int, hop uint16) {
		in.mac.Send(src, &packet.Packet{
			Header: packet.Header{Kind: packet.KindHello, Src: int32(src), Dst: packet.Broadcast},
			Color:  treeColor(t),
			Hop:    hop,
		})
	}

	decide := func(id topology.NodeID) {
		st := states[id]
		if st.decided {
			return
		}
		st.decided = true
		total := 0
		for t := 0; t < m; t++ {
			total += len(in.Heard[id][t])
		}
		p := 1.0
		if total > in.Cfg.K {
			p = float64(in.Cfg.K) / float64(total)
		}
		if !roleRand.Bool(p) {
			return // leaf
		}
		// Join an under-represented tree: weight (total - N_t).
		weights := make([]float64, m)
		sum := 0.0
		for t := 0; t < m; t++ {
			w := float64(total - len(in.Heard[id][t]))
			if m == 1 || w <= 0 {
				w = 1
			}
			weights[t] = w
			sum += w
		}
		u := roleRand.Float64() * sum
		choice := 0
		for t := 0; t < m; t++ {
			u -= weights[t]
			if u < 0 {
				choice = t
				break
			}
		}
		in.TreeOf[id] = choice
		in.Parent[id] = states[id].parent[choice]
		in.Hop[id] = states[id].minHop[choice] + 1
		sendHello(id, choice, in.Hop[id])
	}

	onHello := func(self topology.NodeID, p *packet.Packet) {
		t := colorTree(p.Color)
		if t < 0 || t >= m {
			return
		}
		st := states[self]
		src := topology.NodeID(p.Src)
		already := false
		for _, h := range in.Heard[self][t] {
			if h == src {
				already = true
				break
			}
		}
		if !already {
			in.Heard[self][t] = append(in.Heard[self][t], src)
			if st.parent[t] == topology.None || p.Hop < st.minHop[t] {
				st.parent[t], st.minHop[t] = src, p.Hop
			}
		}
		if self == 0 || st.decided || st.armed {
			return
		}
		for tt := 0; tt < m; tt++ {
			if len(in.Heard[self][tt]) == 0 {
				return
			}
		}
		st.armed = true
		in.sim.After(in.Cfg.DecisionDelay, func() { decide(self) })
	}

	for i := 0; i < n; i++ {
		in.mac.SetHandler(topology.NodeID(i), func(self topology.NodeID, p *packet.Packet) {
			if p.Kind == packet.KindHello {
				onHello(self, p)
			}
		})
	}
	// The base station roots every tree.
	in.sim.After(0, func() {
		for t := 0; t < m; t++ {
			sendHello(0, t, 0)
		}
	})
	in.sim.Run(in.sim.Now() + in.Cfg.Deadline)
}

// checkDisjoint verifies that parent links stay within one tree.
func (in *Instance) checkDisjoint() error {
	for i, t := range in.TreeOf {
		if t == NoTree {
			continue
		}
		p := in.Parent[i]
		if p == topology.None {
			return fmt.Errorf("mtree: aggregator %d has no parent", i)
		}
		if p != 0 && in.TreeOf[p] != t {
			return fmt.Errorf("mtree: node %d on tree %d has parent %d on tree %d", i, t, p, in.TreeOf[p])
		}
	}
	return nil
}

// CoveredAll reports whether node id heard aggregators of every tree.
func (in *Instance) CoveredAll(id topology.NodeID) bool {
	for t := 0; t < in.Cfg.Trees; t++ {
		count := len(in.Heard[id][t])
		if in.TreeOf[id] == t {
			count++
		}
		if count == 0 && id != 0 {
			return false
		}
	}
	return true
}

// CanSlice reports whether node id has l targets on every tree.
func (in *Instance) CanSlice(id topology.NodeID) bool {
	for t := 0; t < in.Cfg.Trees; t++ {
		need := in.Cfg.Slices
		count := len(in.Heard[id][t])
		if in.TreeOf[id] == t {
			count++
		}
		if count < need {
			return false
		}
	}
	return true
}

// CoverageFraction returns the fraction of sensors covered by all m trees.
func (in *Instance) CoverageFraction() float64 {
	n := in.Net.N()
	if n <= 1 {
		return 1
	}
	c := 0
	for i := 1; i < n; i++ {
		if in.CoveredAll(topology.NodeID(i)) {
			c++
		}
	}
	return float64(c) / float64(n-1)
}

// Participants returns the sensors able to slice to all trees.
func (in *Instance) Participants() []topology.NodeID {
	var out []topology.NodeID
	for i := 1; i < in.Net.N(); i++ {
		if in.CanSlice(topology.NodeID(i)) {
			out = append(out, topology.NodeID(i))
		}
	}
	return out
}

// Pollute turns node id into a pollution attacker adding delta when it
// forwards a partial sum; 0 removes it.
func (in *Instance) Pollute(id topology.NodeID, delta int64) {
	if delta == 0 {
		delete(in.polluters, id)
		return
	}
	in.polluters[id] = delta
}

// Verdict is the base station's majority decision over the m tree totals.
type Verdict struct {
	Totals []int64 // per-tree totals
	// Accepted is true when a strict majority of trees agree pairwise
	// within Threshold.
	Accepted bool
	// Value is the majority value (mean of the agreeing cluster).
	Value int64
	// Outliers lists the tree indices outside the majority cluster —
	// the polluted (or heavily lossy) trees.
	Outliers []int
}

// majorityVerdict clusters totals by Threshold-agreement and accepts when
// a strict majority agrees.
func majorityVerdict(totals []int64, th int64) Verdict {
	m := len(totals)
	v := Verdict{Totals: totals}
	// Find the largest set of trees that pairwise agree within th. With
	// m <= 8 a greedy pass over sorted totals suffices: any maximal
	// agreeing cluster is an interval of the sorted order with
	// max-min <= th... pairwise agreement over an interval needs exactly
	// that.
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return totals[idx[a]] < totals[idx[b]] })
	bestLo, bestHi := 0, 0 // [lo, hi] inclusive window over sorted order
	for lo := 0; lo < m; lo++ {
		hi := lo
		for hi+1 < m && totals[idx[hi+1]]-totals[idx[lo]] <= th {
			hi++
		}
		if hi-lo > bestHi-bestLo {
			bestLo, bestHi = lo, hi
		}
	}
	clusterSize := bestHi - bestLo + 1
	inCluster := make([]bool, m)
	var sum int64
	for i := bestLo; i <= bestHi; i++ {
		inCluster[idx[i]] = true
		sum += totals[idx[i]]
	}
	v.Accepted = 2*clusterSize > m
	if clusterSize > 0 {
		v.Value = sum / int64(clusterSize)
	}
	for t := 0; t < m; t++ {
		if !inCluster[t] {
			v.Outliers = append(v.Outliers, t)
		}
	}
	return v
}

// RunCount aggregates a COUNT (one per participant) over all m trees and
// returns the majority verdict.
func (in *Instance) RunCount() (Verdict, error) {
	readings := make([]int64, in.Net.N())
	for i := range readings {
		readings[i] = 1
	}
	return in.RunSum(readings)
}

// RunSum aggregates readings over all m trees. readings[0] is ignored.
func (in *Instance) RunSum(readings []int64) (Verdict, error) {
	if len(readings) != in.Net.N() {
		return Verdict{}, fmt.Errorf("mtree: %d readings for %d nodes", len(readings), in.Net.N())
	}
	n := in.Net.N()
	m := in.Cfg.Trees
	in.round++
	if era := in.round >> 16; era != in.era {
		// Rotate the key era before the wire round wraps: nonces carry
		// only the low 16 bits of the counter (see core.advanceRound).
		in.era = era
		in.ciphers.Reset(linksec.EraKeys(in.keys, era), in.Cfg.Suite)
	}
	round := uint16(in.round)

	if cap(in.assembled) < n {
		in.assembled = append(in.assembled[:cap(in.assembled)], make([][]*slicing.Assembler, n-cap(in.assembled))...)
	}
	in.assembled = in.assembled[:n]
	for i := range in.assembled {
		row := in.assembled[i]
		if cap(row) < m {
			row = append(row[:cap(row)], make([]*slicing.Assembler, m-cap(row))...)
		}
		row = row[:m]
		for t := range row {
			if row[t] == nil {
				row[t] = slicing.NewAssembler()
			} else {
				row[t].Reset()
			}
		}
		in.assembled[i] = row
	}
	in.childSum = resizeCleared(in.childSum, n)
	in.childCount = resizeCleared(in.childCount, n)
	in.bsSum = resizeCleared(in.bsSum, m)
	in.bsCount = resizeCleared(in.bsCount, m)

	in.installReceivers(round)

	// Phase II.
	t0 := in.sim.Now()
	in.roundSpan = qtrace.None
	if in.qt != nil {
		in.roundSpan = in.qt.Start(uint32(round), qtrace.None, -1, "round", float64(t0))
		if cap(in.pendingAgg) < n {
			in.pendingAgg = append(in.pendingAgg[:cap(in.pendingAgg)], make([][]qtrace.Ref, n-cap(in.pendingAgg))...)
		}
		in.pendingAgg = in.pendingAgg[:n]
		for i := range in.pendingAgg {
			in.pendingAgg[i] = in.pendingAgg[i][:0]
		}
	}
	for i := 1; i < n; i++ {
		id := topology.NodeID(i)
		if !in.CanSlice(id) {
			continue
		}
		if in.Cfg.Obs != nil {
			in.Cfg.Obs.Span(int32(id), "phase2:slicing", float64(t0), float64(t0+in.Cfg.SliceWindow), uint32(round))
		}
		slSpan := qtrace.None
		if in.qt != nil {
			slSpan = in.qt.Start(uint32(round), in.roundSpan, int32(id), "slicing", float64(t0))
			in.qt.End(slSpan, float64(t0+in.Cfg.SliceWindow))
		}
		for t := 0; t < m; t++ {
			targets := in.chooseTargets(id, t)
			shares := in.split(readings[i])
			in.sealReqs = in.sealReqs[:0]
			for idx, dst := range targets {
				if dst == id {
					in.assembled[id][t].Add(shares[idx])
					continue
				}
				if !in.ciphers.HasKey(id, dst) {
					continue
				}
				in.sealReqs = append(in.sealReqs, linksec.SealReq{
					Src: id, Dst: dst,
					Nonce: nonce(round, id, dst, t*in.Cfg.Slices+idx),
					Value: shares[idx],
				})
			}
			in.ciphers.SealBatch(in.sealReqs)
			for ri := range in.sealReqs {
				r := &in.sealReqs[ri]
				if !r.OK {
					continue
				}
				p := &packet.Packet{
					Header: packet.Header{Kind: packet.KindSlice, Src: int32(id), Dst: int32(r.Dst), Round: round},
					Cipher: r.Sealed.Cipher,
					Nonce:  r.Sealed.Nonce,
					Tag:    r.Sealed.Tag,
					Color:  treeColor(t),
				}
				offset := eventsim.Time(in.rand.Float64()) * in.Cfg.SliceWindow
				if in.qt != nil {
					ref := in.qt.Start(uint32(round), slSpan, int32(id), "slice", float64(t0+offset))
					in.qt.SetPeer(ref, int32(r.Dst))
					p.TraceQ = round
					p.TraceSpan = uint32(ref)
				}
				in.sim.At(t0+offset, func() { in.mac.Send(id, p) })
			}
		}
	}

	// Phase III.
	t1 := t0 + in.Cfg.SliceWindow + 0.5
	maxHop := uint16(0)
	for i := 1; i < n; i++ {
		if in.TreeOf[i] != NoTree && in.Hop[i] > maxHop {
			maxHop = in.Hop[i]
		}
	}
	for i := 1; i < n; i++ {
		id := topology.NodeID(i)
		if in.TreeOf[id] == NoTree {
			continue
		}
		slot := eventsim.Time(maxHop-in.Hop[id]) * in.Cfg.AggSlot
		jitter := eventsim.Time(in.rand.Float64()) * in.Cfg.AggSlot / 2
		in.sim.At(t1+slot+jitter, func() { in.sendAggregate(round, id) })
	}
	deadline := t1 + eventsim.Time(maxHop+2)*in.Cfg.AggSlot + 1.0
	if in.Cfg.Obs != nil {
		r := uint32(round)
		in.Cfg.Obs.Span(obs.TrackGlobal, "round", float64(t0), float64(deadline), r)
		in.Cfg.Obs.Span(obs.TrackGlobal, "phase3:tree-aggregation", float64(t1), float64(deadline), r)
	}
	if in.qt != nil {
		in.qt.End(in.roundSpan, float64(deadline))
	}
	in.sim.Run(deadline)

	totals := make([]int64, m)
	for t := 0; t < m; t++ {
		totals[t] = in.bsSum[t] + in.assembled[0][t].Total()
	}
	v := majorityVerdict(totals, in.Cfg.Threshold)
	if in.Cfg.Obs != nil && in.Cfg.Obs.Reg != nil {
		verdict := "rejected"
		if v.Accepted {
			verdict = "accepted"
		}
		in.Cfg.Obs.Reg.Counter("ipda_mtree_rounds_total", "majority-vote verdicts",
			obs.Label{Name: "verdict", Value: verdict}).Inc()
		in.Cfg.Obs.Reg.Counter("ipda_mtree_outlier_trees_total",
			"trees voted outside the majority cluster").Add(float64(len(v.Outliers)))
		in.Cfg.Obs.Instant(obs.TrackGlobal, "bs:verify:"+verdict, float64(in.sim.Now()), uint32(round))
	}
	if in.qt != nil {
		verdict := "verify:rejected"
		if v.Accepted {
			verdict = "verify:accepted"
		}
		vRef := in.qt.Instant(uint32(round), in.roundSpan, 0, verdict, float64(in.sim.Now()))
		if len(in.pendingAgg) > 0 {
			for _, child := range in.pendingAgg[0] {
				in.qt.SetParent(child, vRef)
			}
			in.pendingAgg[0] = in.pendingAgg[0][:0]
		}
	}
	return v, nil
}

// noteAggArrival mirrors core.Instance.noteAggArrival for the m-tree
// engine: an ":rx" instant under the sender's span plus re-parenting
// bookkeeping.
func (in *Instance) noteAggArrival(self topology.NodeID, p *packet.Packet) {
	if in.qt == nil {
		return
	}
	in.qt.Instant(uint32(p.Round), qtrace.Ref(p.TraceSpan), int32(self), "aggregate:rx", float64(in.sim.Now()))
	if int(self) < len(in.pendingAgg) {
		in.pendingAgg[self] = append(in.pendingAgg[self], qtrace.Ref(p.TraceSpan))
	}
}

// chooseTargets picks the node's l slice targets on tree t (itself first
// when it aggregates on t).
func (in *Instance) chooseTargets(id topology.NodeID, t int) []topology.NodeID {
	cands := in.Heard[id][t]
	l := in.Cfg.Slices
	if in.TreeOf[id] == t {
		out := []topology.NodeID{id}
		idx := in.rand.Sample(len(cands), min(l-1, len(cands)))
		for _, j := range idx {
			out = append(out, cands[j])
		}
		return out
	}
	idx := in.rand.Sample(len(cands), min(l, len(cands)))
	out := make([]topology.NodeID, 0, l)
	for _, j := range idx {
		out = append(out, cands[j])
	}
	return out
}

// Rounds returns the cumulative aggregation rounds run since Reset.
func (in *Instance) Rounds() uint64 { return in.round }

func (in *Instance) split(value int64) []int64 {
	if in.Cfg.ShareSpread > 0 {
		return slicing.SplitBounded(value, in.Cfg.Slices, in.Cfg.ShareSpread, in.rand)
	}
	return slicing.Split(value, in.Cfg.Slices, in.rand)
}

func nonce(round uint16, src, dst topology.NodeID, idx int) uint32 {
	dir := uint32(0)
	if src > dst {
		dir = 0x80
	}
	return uint32(round)<<8 | dir | uint32(idx&0x7f)
}

// installReceivers wires one dispatch closure, shared by every node and
// round: in.round is constant while a round's events drain, so filtering
// on it matches the former per-round captured-round closures exactly.
func (in *Instance) installReceivers(round uint16) {
	_ = round
	if in.dispatchFn == nil {
		in.dispatchFn = func(self topology.NodeID, p *packet.Packet) {
			if p.Round != uint16(in.round) {
				return
			}
			switch p.Kind {
			case packet.KindSlice:
				t := colorTree(p.Color)
				if t < 0 || t >= in.Cfg.Trees {
					return
				}
				cipher, ok := in.ciphers.Link(topology.NodeID(p.Src), self)
				if !ok {
					return
				}
				share, err := cipher.Open(linksec.Sealed{Cipher: p.Cipher, Nonce: p.Nonce, Tag: p.Tag})
				if err != nil {
					if in.qt != nil {
						in.qt.Instant(uint32(p.Round), qtrace.Ref(p.TraceSpan), int32(self), "slice:rejected", float64(in.sim.Now()))
					}
					return
				}
				in.assembled[self][t].Add(share)
				if in.qt != nil {
					in.qt.Instant(uint32(p.Round), qtrace.Ref(p.TraceSpan), int32(self), "slice:assembled", float64(in.sim.Now()))
				}
			case packet.KindAggregate:
				t := colorTree(p.Color)
				if t < 0 || t >= in.Cfg.Trees {
					return
				}
				if self == 0 {
					in.bsSum[t] += p.Value
					in.bsCount[t] += p.Count
					in.noteAggArrival(self, p)
					return
				}
				if in.TreeOf[self] != t {
					return
				}
				in.childSum[self] += p.Value
				in.childCount[self] += p.Count
				in.noteAggArrival(self, p)
			}
		}
	}
	for i := 0; i < in.Net.N(); i++ {
		in.mac.SetHandler(topology.NodeID(i), in.dispatchFn)
	}
}

// resizeCleared returns s resized to n elements, all zero, reusing its
// backing array when it suffices.
func resizeCleared[E int64 | uint32](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (in *Instance) sendAggregate(round uint16, id topology.NodeID) {
	t := in.TreeOf[id]
	if t == NoTree {
		return
	}
	value := in.assembled[id][t].Total() + in.childSum[id]
	if delta, ok := in.polluters[id]; ok {
		value += delta
	}
	parent := in.Parent[id]
	if parent == topology.None {
		return
	}
	pkt := packet.Packet{
		Header: packet.Header{Kind: packet.KindAggregate, Src: int32(id), Dst: int32(parent), Round: round},
		Value:  value,
		Count:  in.childCount[id] + 1,
		Color:  treeColor(t),
	}
	if in.qt != nil {
		agg := in.qt.Start(uint32(round), in.roundSpan, int32(id), aggSpanNames[t], float64(in.sim.Now()))
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
	in.mac.Send(id, &pkt)
}
