// Package tree implements Phase I of iPDA — disjoint aggregation tree
// construction (Section III-B of the paper) — and the TAG spanning-tree
// construction used by the baseline.
//
// The base station floods HELLO messages as an aggregator of every tree:
// the paper's red and blue, or m trees in the generalization Section III-B
// sketches ("the disjoint aggregation tree construction phase can be
// easily generalized to build multiple aggregation trees (m > 2); however
// ... the network must be very dense"). A node that has heard HELLOs from
// aggregators of every tree waits a short decision window, estimates the
// trees' balance in its neighborhood from the HELLOs it received, and then
// chooses a role: an aggregator of one tree, or a leaf. Aggregators join
// their tree (parent = the lowest-hop heard aggregator of that tree) and
// forward the HELLO; leaves stay silent. Nodes that never hear every tree
// cannot participate in aggregation — the coverage loss factor (a) of
// Section IV-B.3, which grows with m.
//
// Role probabilities follow the paper's adaptive rule (Equation 1):
//
//	p  = min(1, k/(Nred+Nblue))   — the aggregator budget, k ≈ 4
//	pr = p · Nblue/(Nred+Nblue)   — bias toward the under-represented color
//	pb = p · Nred/(Nred+Nblue)
//
// or the simplified fixed rule pr = pb = 0.5 (Equation 2). With m trees,
// p = min(1, k/ΣN) and tree t is joined with probability
// p·(ΣN − N_t)/((m−1)·ΣN), or p/m under the fixed rule; at m = 2 these are
// Equations (1) and (2). One flood, Builder, builds every m.
//
// Phase I's outcome is a Forest, the one tree representation of the
// simulator: it answers coverage, participation and repair for any tree
// count.
package tree

import (
	"fmt"
	"slices"

	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// Config are Phase I parameters.
type Config struct {
	// K is the aggregator budget parameter k of Section III-B (paper
	// recommends 4). Must be at least the tree count when Adaptive.
	K int
	// Adaptive selects Equation (1) when true, Equation (2) (pr=pb=0.5)
	// when false.
	Adaptive bool
	// DecisionDelay is how long a node waits after hearing every tree
	// before fixing its role, to collect more HELLOs.
	DecisionDelay eventsim.Time
	// Deadline bounds the whole phase in simulated seconds.
	Deadline eventsim.Time
	// Disabled marks nodes excluded from the protocol entirely: they stay
	// silent and undecided. Used for failure injection and for the
	// O(log N) DoS-attacker localization of Section III-D. May be nil.
	Disabled []bool
	// ExtraRoots lists additional base stations beyond node 0 (Section
	// II-A: "iPDA is readily extensible to multiple base station cases").
	// Every root floods every tree at hop 0 and collects aggregation
	// results; nodes attach to whichever root's flood reaches them first.
	ExtraRoots []topology.NodeID
	// Obs is the optional instrumentation sink: it counts role decisions
	// in ipda_tree_roles_total. Nil disables instrumentation; observing
	// never alters the constructed trees.
	Obs *obs.Sink
}

// DefaultConfig returns the paper's parameters: adaptive roles with k = 4.
func DefaultConfig() Config {
	return Config{K: 4, Adaptive: true, DecisionDelay: 0.05, Deadline: 10}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Adaptive && c.K < 2 {
		return fmt.Errorf("tree: adaptive config requires K >= 2, got %d", c.K)
	}
	if c.DecisionDelay <= 0 || c.Deadline <= 0 {
		return fmt.Errorf("tree: delays must be positive")
	}
	// A root listed twice would flood every tree twice, and onHello's
	// heard lists rely on each sender sending each tree's HELLO once.
	for i, r := range c.ExtraRoots {
		if slices.Contains(c.ExtraRoots[:i], r) {
			return fmt.Errorf("tree: extra root %d listed twice", r)
		}
	}
	return nil
}

// Tree-index markers of Forest.Tree.
const (
	// NoTree marks a node that aggregates on no tree: a leaf, or a node
	// Phase I never reached.
	NoTree = -1
	// Root marks a base station, the root of every tree.
	Root = -2
)

// MaxTrees is the most trees a Forest may hold.
const MaxTrees = 8

// Forest is the outcome of Phase I: m node-disjoint aggregation trees over
// the deployment. Tree t goes on the air as packet.TreeColor(t), so trees
// 0 and 1 are the paper's red and blue. Disjointness is structural: each
// node carries one tree index.
type Forest struct {
	// Tree is, per node, the tree it aggregates on, NoTree, or Root.
	Tree []int
	// Parent is, per node, its tree parent: topology.None for base
	// stations and non-aggregators.
	Parent []topology.NodeID
	// Hop is, per node, its depth on its tree (0 for base stations and
	// non-aggregators).
	Hop []uint16
	// Heard[t][i] lists the tree-t aggregators node i heard during
	// Phase I: its slice-target candidates on tree t. A base station
	// appears on every tree of its neighbors.
	Heard [][][]topology.NodeID

	// RepairDead's scratch, reused across passes: per-node availability
	// and the backing array of RepairOutcome.Skipped.
	avail   []bool
	skipped []topology.NodeID
}

// Check reports the first way f is malformed for an n-node deployment: a
// tree count outside [2, MaxTrees], a per-node slice of the wrong length,
// or a parent link that leaves its tree.
func (f *Forest) Check(n int) error {
	m := len(f.Heard)
	if m < 2 || m > MaxTrees {
		return fmt.Errorf("%d trees, want 2 to %d", m, MaxTrees)
	}
	if len(f.Tree) != n || len(f.Parent) != n || len(f.Hop) != n {
		return fmt.Errorf("tree/parent/hop lengths %d/%d/%d for %d nodes", len(f.Tree), len(f.Parent), len(f.Hop), n)
	}
	for t, heard := range f.Heard {
		if len(heard) != n {
			return fmt.Errorf("tree %d heard lists for %d of %d nodes", t, len(heard), n)
		}
	}
	for i, t := range f.Tree {
		p := f.Parent[i]
		switch {
		case t == NoTree || t == Root:
			if p != topology.None {
				return fmt.Errorf("non-aggregator %d has parent %d", i, p)
			}
		case t < 0 || t >= m:
			return fmt.Errorf("node %d on tree %d of %d", i, t, m)
		case p == topology.None:
			return fmt.Errorf("aggregator %d has no parent", i)
		case p < 0 || int(p) >= n:
			return fmt.Errorf("aggregator %d has parent %d outside the deployment", i, p)
		case f.Tree[p] != t && f.Tree[p] != Root:
			return fmt.Errorf("tree %d aggregator %d has parent %d on tree %d", t, i, p, f.Tree[p])
		}
	}
	return nil
}

// Aggregators returns the IDs of tree t's aggregators in ID order.
func (f *Forest) Aggregators(t int) []topology.NodeID {
	var out []topology.NodeID
	for i, ti := range f.Tree {
		if ti == t {
			out = append(out, topology.NodeID(i))
		}
	}
	return out
}

// CanSlice reports whether node id has enough aggregator neighbors to send
// l slices to every tree (factor (b) of Sec. IV-B.3), counting itself on
// its own tree. A base station always can.
func (f *Forest) CanSlice(id topology.NodeID, l int) bool {
	if f.Tree[id] == Root {
		return true
	}
	for t, heard := range f.Heard {
		count := len(heard[id])
		if f.Tree[id] == t {
			count++
		}
		if count < l {
			return false
		}
	}
	return true
}

// CoverageFraction returns the fraction of sensors (every node but node 0)
// covered by every tree — Figure 8(a). A node is covered when it heard
// HELLOs from every tree (CanSlice with l = 1), the participation
// precondition of the protocol (factor (a) of Sec. IV-B.3); an aggregator
// counts itself on its own tree and a base station is covered.
func (f *Forest) CoverageFraction() float64 { return f.ParticipationFraction(1) }

// ParticipationFraction returns the fraction of sensors (every node but
// node 0) with enough aggregator neighbors to send l slices to every tree
// — Figure 8(b).
func (f *Forest) ParticipationFraction(l int) float64 {
	n := len(f.Tree)
	if n <= 1 {
		return 1
	}
	can := 0
	for i := 1; i < n; i++ {
		if f.CanSlice(topology.NodeID(i), l) {
			can++
		}
	}
	return float64(can) / float64(n-1)
}

// RepairOutcome summarizes one RepairDead pass.
type RepairOutcome struct {
	// Reattached counts parent re-assignments applied.
	Reattached int
	// Skipped lists live aggregators left with no usable parent; they must
	// sit the round out (and are unavailable to their own children). It
	// is valid until the forest's next RepairDead.
	Skipped []topology.NodeID
}

// RepairDead performs localized tree repair: every live aggregator whose
// parent is down is re-attached to an alternate live aggregator of its own
// tree (or a base station) that it heard a HELLO from during Phase I and
// that sits strictly closer to the base, the shallowest such candidate,
// lowest ID on ties. Choosing only strictly-shallower parents keeps the
// parent chains acyclic and preserves the Phase III deepest-first
// transmission order without recomputing hops; choosing only same-tree
// parents preserves node-disjointness, which Check re-verifies before
// returning. Aggregators with no such candidate are reported in Skipped
// and treated as unavailable themselves, so their children repair around
// them too (the pass iterates to a fixpoint).
//
// Parents are modified in place; callers that repair per round should
// restore the pristine Phase I parents before the next pass.
func (f *Forest) RepairDead(down func(topology.NodeID) bool) (RepairOutcome, error) {
	out := RepairOutcome{Skipped: f.skipped[:0]}
	n := len(f.Tree)
	f.avail = resize(f.avail, n)
	avail := f.avail
	for i := range avail {
		avail[i] = !down(topology.NodeID(i))
	}
	for {
		changed := false
		for i := 0; i < n; i++ {
			t := f.Tree[i]
			if t < 0 || !avail[i] {
				continue
			}
			p := f.Parent[i]
			if p != topology.None && avail[p] {
				continue
			}
			best := topology.None
			for _, c := range f.Heard[t][i] {
				if !avail[c] {
					continue
				}
				if ct := f.Tree[c]; ct != t && ct != Root {
					continue
				}
				if f.Hop[c] >= f.Hop[i] {
					continue
				}
				if best == topology.None || f.Hop[c] < f.Hop[best] ||
					(f.Hop[c] == f.Hop[best] && c < best) {
					best = c
				}
			}
			if best == topology.None {
				avail[i] = false
				out.Skipped = append(out.Skipped, topology.NodeID(i))
			} else {
				f.Parent[i] = best
				out.Reattached++
			}
			changed = true
		}
		if !changed {
			break
		}
	}
	f.skipped = out.Skipped
	if err := f.Check(n); err != nil {
		return out, fmt.Errorf("tree: repair broke the forest: %w", err)
	}
	return out, nil
}

var names = [MaxTrees]string{"red", "blue", "t2", "t3", "t4", "t5", "t6", "t7"}

// Name is tree t's name in metrics and traces: the paper's red and blue,
// then t2, t3, ….
func Name(t int) string { return names[t] }

// Builder runs Phase I repeatedly, reusing the per-node state, the
// neighbor-list backing arrays, the Forest, and the per-node decision
// closures across builds. A Build on a used Builder is byte-identical to
// one on a fresh Builder — state is fully reinitialized, only capacity
// survives — but it invalidates the Forest of the previous Build (the
// neighbor lists share backing storage). One Builder serves one protocol
// instance; it is not safe for concurrent use.
type Builder struct {
	forest Forest
	// Per node i and tree t, flat at index t·n + i so that Forest.Heard[t]
	// is a window of heard: the senders of the tree-t HELLOs i heard, and
	// the lowest-hop one with its hop (set by the first HELLO).
	heard  [][]topology.NodeID
	best   []topology.NodeID
	minHop []uint16
	// Per node: how many trees it has heard (its decision arms when that
	// reaches m), and whether its role is fixed (base stations start so).
	seen      []uint8
	decided   []bool
	decideFns []func()
	handlerFn mac.Handler
	kickoffFn func()

	// Per-build context, set by Build and read by the event callbacks.
	sim      *eventsim.Sim
	link     *mac.MAC
	cfg      Config
	n, m     int
	roleRand rng.Stream
	counts   [MaxTrees]int // decide's scratch: HELLO counts per tree
	// ipda_tree_roles_total handles; aggs is indexed by tree.
	undecided, leaf obs.Counter
	aggs            [MaxTrees]obs.Counter
}

// Build runs Phase I over the given network and returns the constructed
// forest of m trees (2 ≤ m ≤ MaxTrees; at m = 2, Heard = [red, blue]). It
// drives sim until cfg.Deadline; the MAC's receive handlers are owned by
// Build for the duration of the call.
func (b *Builder) Build(sim *eventsim.Sim, link *mac.MAC, net *topology.Network, cfg Config, m int, rand *rng.Stream) (*Forest, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case m < 2 || m > MaxTrees:
		return nil, fmt.Errorf("tree: tree count must be in [2, %d], got %d", MaxTrees, m)
	case cfg.Adaptive && cfg.K < m:
		return nil, fmt.Errorf("tree: adaptive config requires K >= the tree count, got %d < %d", cfg.K, m)
	}
	n := net.N()
	f := &b.forest
	f.Tree = resize(f.Tree, n)
	f.Parent = resize(f.Parent, n)
	f.Hop = resize(f.Hop, n)
	for i := range f.Tree {
		f.Tree[i], f.Parent[i], f.Hop[i] = NoTree, topology.None, 0
	}
	if cap(b.heard) < n*m {
		// Grow in place, so every list keeps its backing array.
		b.heard = append(b.heard[:cap(b.heard)], make([][]topology.NodeID, n*m-cap(b.heard))...)
	}
	b.heard = b.heard[:n*m]
	for k := range b.heard {
		b.heard[k] = b.heard[k][:0]
	}
	f.Heard = f.Heard[:0]
	for t := range m {
		f.Heard = append(f.Heard, b.heard[t*n:(t+1)*n:(t+1)*n])
	}
	b.best = resize(b.best, n*m)
	b.minHop = resize(b.minHop, n*m)
	b.seen = resize(b.seen, n)
	b.decided = resize(b.decided, n)
	clear(b.seen)
	clear(b.decided)
	f.Tree[0], b.decided[0] = Root, true
	for _, r := range cfg.ExtraRoots {
		if r <= 0 || int(r) >= n {
			return nil, fmt.Errorf("tree: extra root %d out of range", r)
		}
		f.Tree[r], b.decided[r] = Root, true
	}

	b.sim = sim
	b.link = link
	b.cfg = cfg
	b.n, b.m = n, m
	b.roleRand = rand.Derive(1)

	b.undecided, b.leaf, b.aggs = obs.Counter{}, obs.Counter{}, [MaxTrees]obs.Counter{}
	if cfg.Obs != nil && cfg.Obs.Reg != nil {
		role := func(name string) obs.Counter {
			return cfg.Obs.Reg.Counter("ipda_tree_roles_total", "Phase I role decisions", obs.Label{Name: "role", Value: name})
		}
		b.undecided, b.leaf = role("undecided"), role("leaf")
		for t := range m {
			b.aggs[t] = role(names[t])
		}
	}

	if cap(b.decideFns) < n {
		b.decideFns = append(b.decideFns[:cap(b.decideFns)], make([]func(), n-cap(b.decideFns))...)
	}
	b.decideFns = b.decideFns[:n]
	for i := range b.decideFns {
		if b.decideFns[i] == nil {
			id := topology.NodeID(i)
			b.decideFns[i] = func() { b.decide(id) }
		}
	}
	if b.handlerFn == nil {
		b.handlerFn = func(self topology.NodeID, p *packet.Packet) {
			if p.Kind == packet.KindHello {
				b.onHello(self, p)
			}
		}
		b.kickoffFn = func() { b.kickoff() }
	}
	for i := 0; i < n; i++ {
		link.SetHandler(topology.NodeID(i), b.handlerFn)
	}

	sim.After(0, b.kickoffFn)
	sim.Run(sim.Now() + cfg.Deadline)

	undecided := 0
	for _, d := range b.decided {
		if !d {
			undecided++
		}
	}
	b.undecided.Add(float64(undecided))
	return f, nil
}

// kickoff starts the flood: every base station initiates as an aggregator
// of every tree at hop 0, node 0 first, each root's trees in index order.
func (b *Builder) kickoff() {
	for t := range b.m {
		b.sendHello(0, t, 0)
	}
	for _, r := range b.cfg.ExtraRoots {
		for t := range b.m {
			b.sendHello(r, t, 0)
		}
	}
}

func (b *Builder) sendHello(src topology.NodeID, t int, hop uint16) {
	b.link.Send(src, &packet.Packet{
		Header: packet.Header{Kind: packet.KindHello, Src: int32(src), Dst: packet.Broadcast},
		Color:  packet.TreeColor(t),
		Hop:    hop,
	})
}

// decide fixes node id's role once its decision window closes: one draw
// from the role stream picks a tree or the leaf role (see role). Only
// nodes that heard every tree are ever armed, and heard lists never
// shrink, so every count is positive.
func (b *Builder) decide(id topology.NodeID) {
	b.decided[id] = true
	n := b.n
	counts := b.counts[:b.m]
	for t := range counts {
		counts[t] = len(b.heard[t*n+int(id)])
	}
	t := b.cfg.role(b.roleRand.Float64(), counts)
	if t == NoTree {
		b.leaf.Inc()
		return
	}
	k := t*n + int(id)
	f := &b.forest
	f.Tree[id], f.Parent[id], f.Hop[id] = t, b.best[k], b.minHop[k]+1
	b.sendHello(id, t, f.Hop[id])
	b.aggs[t].Inc()
}

// role is Phase I's role rule, a pure function of a uniform draw
// u ∈ [0, 1) and the node's HELLO count per tree, heard[t] = N_t > 0. It
// returns the tree the node joins, or NoTree for a leaf.
//
// A node aggregates with probability p: min(1, K/ΣN) under Equation (1),
// and 1 under Equation (2). It joins tree t with probability
// p·(ΣN − N_t)/((m−1)·ΣN) under Equation (1), favouring the trees it heard
// least, and p/m under Equation (2). The trees take consecutive intervals
// of [0, p) in index order; the last takes what the others leave. At
// m = 2 the first bound is the paper's pr = p·N_blue/(N_red+N_blue), or
// 0.5, evaluated in the same order, so red/blue forests are bit-identical
// to the two-colour rule's.
func (c *Config) role(u float64, heard []int) int {
	m, total := len(heard), 0
	for _, h := range heard {
		total += h
	}
	p := 1.0
	if c.Adaptive && total > c.K {
		p = float64(c.K) / float64(total)
	}
	if u >= p {
		return NoTree
	}
	acc, den := 0, m
	if c.Adaptive {
		den = (m - 1) * total
	}
	for t := range m - 1 {
		if c.Adaptive {
			acc += total - heard[t]
		} else {
			acc++
		}
		if u < p*float64(acc)/float64(den) {
			return t
		}
	}
	return m - 1
}

func (b *Builder) onHello(self topology.NodeID, p *packet.Packet) {
	if len(b.cfg.Disabled) > int(self) && b.cfg.Disabled[self] {
		return
	}
	t := p.Color.Tree()
	if t < 0 || t >= b.m {
		return
	}
	// No sender is heard twice: HELLOs are broadcasts, which the MAC never
	// retransmits, and every node sends each tree's HELLO at most once —
	// roots once at kickoff (Validate rejects a root listed twice),
	// aggregators once on deciding.
	src := topology.NodeID(p.Src)
	k := t*b.n + int(self)
	b.heard[k] = append(b.heard[k], src)
	first := len(b.heard[k]) == 1
	if first || p.Hop < b.minHop[k] {
		b.best[k], b.minHop[k] = src, p.Hop
	}
	if !first {
		return
	}
	b.seen[self]++
	if int(b.seen[self]) == b.m && !b.decided[self] {
		b.sim.After(b.cfg.DecisionDelay, b.decideFns[self])
	}
}

// resize returns s with length n, reusing its backing array when it
// suffices; the contents are the caller's to overwrite.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// TAGResult is the outcome of TAG spanning-tree construction: a single
// aggregation tree over all reachable nodes.
type TAGResult struct {
	Parent  []topology.NodeID // topology.None for the root and unreached nodes
	Hop     []uint16
	Reached []bool
}

// TAGBuilder runs TAG tree construction repeatedly, reusing the TAGResult
// arrays and the flood closures across builds. Like Builder, a Build on a
// used TAGBuilder matches a fresh one exactly but invalidates the previous
// Build's TAGResult. Not safe for concurrent use.
type TAGBuilder struct {
	res       TAGResult
	handlerFn mac.Handler
	kickoffFn func()
	m         *mac.MAC
}

// Build floods a single-tree HELLO from the base station (node 0): each
// node adopts the first heard sender as parent and rebroadcasts once. This
// is the tree TAG aggregates over.
func (tb *TAGBuilder) Build(sim *eventsim.Sim, m *mac.MAC, net *topology.Network, deadline eventsim.Time) *TAGResult {
	n := net.N()
	res := &tb.res
	res.Parent = resize(res.Parent, n)
	res.Hop = resize(res.Hop, n)
	if cap(res.Reached) < n {
		res.Reached = make([]bool, n)
	}
	res.Reached = res.Reached[:n]
	for i := range res.Parent {
		res.Parent[i] = topology.None
		res.Hop[i] = 0
		res.Reached[i] = false
	}
	res.Reached[0] = true
	tb.m = m
	if tb.handlerFn == nil {
		tb.handlerFn = func(self topology.NodeID, p *packet.Packet) {
			r := &tb.res
			if p.Kind != packet.KindHello || r.Reached[self] {
				return
			}
			r.Reached[self] = true
			r.Parent[self] = topology.NodeID(p.Src)
			r.Hop[self] = p.Hop + 1
			tb.sendHello(self, r.Hop[self])
		}
		tb.kickoffFn = func() { tb.sendHello(0, 0) }
	}
	for i := 0; i < n; i++ {
		m.SetHandler(topology.NodeID(i), tb.handlerFn)
	}
	sim.After(0, tb.kickoffFn)
	sim.Run(sim.Now() + deadline)
	return res
}

func (tb *TAGBuilder) sendHello(src topology.NodeID, hop uint16) {
	tb.m.Send(src, &packet.Packet{
		Header: packet.Header{Kind: packet.KindHello, Src: int32(src), Dst: packet.Broadcast},
		Hop:    hop,
	})
}
