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
// unchanged per tree on core's round engine: l slices to each of the m
// trees (m·l − 1 transmissions per aggregator), then per-tree additive
// aggregation.
package mtree

import (
	"fmt"
	"sort"

	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/linksec"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/qtrace"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/tree"
)

// NoTree marks leaves and undecided nodes, Root the base station.
const (
	NoTree = core.NoTree
	Root   = core.Root
)

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

// Instance is one deployed m-tree network: the generalized Phase I's
// forest, run round by round by core's engine.
type Instance struct {
	Net *topology.Network
	Cfg Config

	// TreeOf[i] is the tree node i aggregates on, NoTree, or Root for the
	// base station.
	TreeOf []int
	// Parent and Hop describe each aggregator's position on its tree.
	Parent []topology.NodeID
	Hop    []uint16
	// Heard[t][i] lists the tree-t aggregators node i heard during
	// Phase I (slice-target candidates).
	Heard [][][]topology.NodeID

	eng core.Instance
}

// New deploys the instance and runs the generalized Phase I.
func New(net *topology.Network, cfg Config, seed uint64) (*Instance, error) {
	in := &Instance{}
	if err := in.Reset(net, cfg, seed); err != nil {
		return nil, err
	}
	return in, nil
}

// Reset re-deploys the instance over net exactly as New(net, cfg, seed)
// would, reusing the engine's simulator, medium, MAC tables, cipher pool,
// and round buffers. Prior results are invalidated.
func (in *Instance) Reset(net *topology.Network, cfg Config, seed uint64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	macCfg := cfg.MAC
	if macCfg == (mac.Config{}) {
		macCfg = mac.DefaultConfig()
	}
	in.Net = net
	in.Cfg = cfg
	return in.eng.Deploy(net, core.Config{
		Slices:      cfg.Slices,
		Threshold:   cfg.Threshold,
		Tree:        tree.Config{K: cfg.K, Adaptive: true, DecisionDelay: cfg.DecisionDelay, Deadline: cfg.Deadline},
		MAC:         macCfg,
		Keys:        linksec.NewPairwise(seed ^ 0x6d74726565),
		Suite:       cfg.Suite,
		SliceWindow: cfg.SliceWindow,
		AggSlot:     cfg.AggSlot,
		ShareSpread: cfg.ShareSpread,
		Obs:         cfg.Obs,
		QTrace:      cfg.QTrace,
	}, seed, in.buildTrees)
}

// buildTrees runs the generalized Phase I flood on the engine's freshly
// reset radio stack and returns its forest.
func (in *Instance) buildTrees(root *rng.Stream) (core.Forest, error) {
	sim, link := in.eng.Sim, in.eng.MAC
	roleRand := root.Split(2)
	n := in.Net.N()
	m := in.Cfg.Trees
	in.TreeOf = make([]int, n)
	in.Parent = make([]topology.NodeID, n)
	in.Hop = make([]uint16, n)
	in.Heard = make([][][]topology.NodeID, m)
	for t := range in.Heard {
		in.Heard[t] = make([][]topology.NodeID, n)
	}
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
		st := &state{
			minHop: make([]uint16, m),
			parent: make([]topology.NodeID, m),
		}
		for t := range st.parent {
			st.parent[t] = topology.None
		}
		states[i] = st
	}
	in.TreeOf[0] = Root
	states[0].decided = true

	sendHello := func(src topology.NodeID, t int, hop uint16) {
		link.Send(src, &packet.Packet{
			Header: packet.Header{Kind: packet.KindHello, Src: int32(src), Dst: packet.Broadcast},
			Color:  packet.TreeColor(t),
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
			total += len(in.Heard[t][id])
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
			w := float64(total - len(in.Heard[t][id]))
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
		t := p.Color.Tree()
		if t < 0 || t >= m {
			return
		}
		st := states[self]
		src := topology.NodeID(p.Src)
		already := false
		for _, h := range in.Heard[t][self] {
			if h == src {
				already = true
				break
			}
		}
		if !already {
			in.Heard[t][self] = append(in.Heard[t][self], src)
			if st.parent[t] == topology.None || p.Hop < st.minHop[t] {
				st.parent[t], st.minHop[t] = src, p.Hop
			}
		}
		if self == 0 || st.decided || st.armed {
			return
		}
		for tt := 0; tt < m; tt++ {
			if len(in.Heard[tt][self]) == 0 {
				return
			}
		}
		st.armed = true
		sim.After(in.Cfg.DecisionDelay, func() { decide(self) })
	}

	for i := 0; i < n; i++ {
		link.SetHandler(topology.NodeID(i), func(self topology.NodeID, p *packet.Packet) {
			if p.Kind == packet.KindHello {
				onHello(self, p)
			}
		})
	}
	// The base station roots every tree.
	sim.After(0, func() {
		for t := 0; t < m; t++ {
			sendHello(0, t, 0)
		}
	})
	sim.Run(sim.Now() + in.Cfg.Deadline)
	return core.Forest{Tree: in.TreeOf, Parent: in.Parent, Hop: in.Hop, Heard: in.Heard}, nil
}

// CoveredAll reports whether node id heard aggregators of every tree.
func (in *Instance) CoveredAll(id topology.NodeID) bool {
	for t := 0; t < in.Cfg.Trees; t++ {
		count := len(in.Heard[t][id])
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
func (in *Instance) CanSlice(id topology.NodeID) bool { return in.eng.CanSlice(id) }

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
func (in *Instance) Participants() []topology.NodeID { return in.eng.Participants() }

// Pollute turns node id into a pollution attacker adding delta when it
// forwards a partial sum; 0 removes it.
func (in *Instance) Pollute(id topology.NodeID, delta int64) { in.eng.Pollute(id, delta) }

// Rounds returns the cumulative aggregation rounds run since Reset.
func (in *Instance) Rounds() uint64 { return in.eng.Rounds() }

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
	_, totals, err := in.eng.RunRound(readings)
	if err != nil {
		return Verdict{}, err
	}
	v := majorityVerdict(append([]int64(nil), totals...), in.Cfg.Threshold)
	in.eng.Verdict(v.Accepted)
	if in.Cfg.Obs != nil && in.Cfg.Obs.Reg != nil {
		in.Cfg.Obs.Reg.Counter("ipda_mtree_outlier_trees_total",
			"trees voted outside the majority cluster").Add(float64(len(v.Outliers)))
	}
	return v, nil
}
