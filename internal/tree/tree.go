// Package tree implements Phase I of iPDA — disjoint aggregation tree
// construction (Section III-B of the paper) — and the TAG spanning-tree
// construction used by the baseline.
//
// The base station floods HELLO messages as both a red and a blue
// aggregator. A node that has heard HELLOs from aggregators of both colors
// waits a short decision window, estimates the red/blue balance in its
// neighborhood from the HELLOs it received, and then chooses a role: red
// aggregator, blue aggregator, or leaf. Aggregators join the tree of their
// color (parent = the lowest-hop heard aggregator of that color) and
// forward the HELLO; leaves stay silent. Nodes that never hear both colors
// cannot participate in aggregation — the coverage loss factor (a) of
// Section IV-B.3.
//
// Role probabilities follow the paper's adaptive rule (Equation 1):
//
//	p  = min(1, k/(Nred+Nblue))   — the aggregator budget, k ≈ 4
//	pr = p · Nblue/(Nred+Nblue)   — bias toward the under-represented color
//	pb = p · Nred/(Nred+Nblue)
//
// or the simplified fixed rule pr = pb = 0.5 (Equation 2).
//
// Phase I's outcome is a Forest, the one tree representation of the
// simulator: package mtree's m-tree flood builds the same type, and the
// forest answers coverage, participation and repair for any tree count.
package tree

import (
	"fmt"
	"slices"

	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// Config are Phase I parameters.
type Config struct {
	// K is the aggregator budget parameter k of Section III-B (paper
	// recommends 4). Must be >= 2 when Adaptive.
	K int
	// Adaptive selects Equation (1) when true, Equation (2) (pr=pb=0.5)
	// when false.
	Adaptive bool
	// DecisionDelay is how long a node waits after hearing both colors
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
	// Every root floods both colors at hop 0 and collects aggregation
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
	// A root listed twice would flood every color twice, and onHello's
	// heard lists rely on each sender sending each color once.
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

// Covered reports whether node id heard HELLOs from every tree — the
// participation precondition of the protocol (factor (a) of Sec. IV-B.3).
// An aggregator counts itself on its own tree; a base station is covered.
func (f *Forest) Covered(id topology.NodeID) bool { return f.CanSlice(id, 1) }

// CoverageFraction returns the fraction of sensors (every node but node 0)
// covered by every tree — Figure 8(a).
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
	// sit the round out (and are unavailable to their own children).
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
	var out RepairOutcome
	n := len(f.Tree)
	avail := make([]bool, n)
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
	if err := f.Check(n); err != nil {
		return out, fmt.Errorf("tree: repair broke the forest: %w", err)
	}
	return out, nil
}

// nodeState is the per-node Phase I state machine. Its per-color arrays
// are indexed by tree: 0 is red, 1 is blue.
type nodeState struct {
	tree          int // NoTree until decided, then NoTree (leaf), 0 or 1; Root for base stations
	parent        topology.NodeID
	hop           uint16
	heard         [2][]topology.NodeID // senders of each color's HELLOs heard
	minHop        [2]uint16
	best          [2]topology.NodeID // lowest-hop sender of each color
	decisionArmed bool
	decided       bool
}

// Builder runs Phase I repeatedly, reusing the per-node state machines,
// the neighbor-list backing arrays, the Forest, and the per-node decision
// closures across builds. A Build on a used Builder is byte-identical to
// one on a fresh Builder — state is fully reinitialized, only capacity
// survives — but it invalidates the Forest of the previous Build (the
// neighbor lists share backing storage). One Builder serves one protocol
// instance; it is not safe for concurrent use.
type Builder struct {
	states    []nodeState
	forest    Forest
	heard     [2][][]topology.NodeID
	decideFns []func()
	handlerFn mac.Handler
	kickoffFn func()

	// Per-build context, set by Build and read by the event callbacks.
	sim      *eventsim.Sim
	m        *mac.MAC
	cfg      Config
	roleRand *rng.Stream
	// ipda_tree_roles_total handles: red and blue by tree index.
	undecided, leaf obs.Counter
	aggs            [2]obs.Counter
}

// BuildDisjoint runs Phase I over the given network and returns the
// constructed red/blue forest. It drives sim until cfg.Deadline; the
// MAC's receive handlers are owned by this function for the duration of
// the call.
func BuildDisjoint(sim *eventsim.Sim, m *mac.MAC, net *topology.Network, cfg Config, rand *rng.Stream) (*Forest, error) {
	return new(Builder).Build(sim, m, net, cfg, rand)
}

// Build is BuildDisjoint over the Builder's reusable storage. The forest
// holds two trees, Heard = [red, blue].
func (b *Builder) Build(sim *eventsim.Sim, m *mac.MAC, net *topology.Network, cfg Config, rand *rng.Stream) (*Forest, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := net.N()
	if cap(b.states) < n {
		b.states = append(b.states[:cap(b.states)], make([]nodeState, n-cap(b.states))...)
	}
	b.states = b.states[:n]
	for i := range b.states {
		st := &b.states[i]
		st.tree = NoTree
		st.parent = topology.None
		st.hop = 0
		for t := range st.heard {
			st.heard[t] = st.heard[t][:0]
			st.minHop[t] = 0
			st.best[t] = topology.None
		}
		st.decisionArmed = false
		st.decided = false
	}
	b.states[0].tree = Root
	b.states[0].decided = true
	for _, r := range cfg.ExtraRoots {
		if r <= 0 || int(r) >= n {
			return nil, fmt.Errorf("tree: extra root %d out of range", r)
		}
		b.states[r].tree = Root
		b.states[r].decided = true
	}

	b.sim = sim
	b.m = m
	b.cfg = cfg
	b.roleRand = rand.Split(1)

	b.undecided, b.leaf, b.aggs = obs.Counter{}, obs.Counter{}, [2]obs.Counter{}
	if cfg.Obs != nil && cfg.Obs.Reg != nil {
		role := func(name string) obs.Counter {
			return cfg.Obs.Reg.Counter("ipda_tree_roles_total", "Phase I role decisions", obs.Label{Name: "role", Value: name})
		}
		b.undecided, b.leaf = role("undecided"), role("leaf")
		b.aggs = [2]obs.Counter{role("red"), role("blue")}
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
		m.SetHandler(topology.NodeID(i), b.handlerFn)
	}

	sim.After(0, b.kickoffFn)
	sim.Run(sim.Now() + cfg.Deadline)

	f := &b.forest
	f.Tree = resize(f.Tree, n)
	f.Parent = resize(f.Parent, n)
	f.Hop = resize(f.Hop, n)
	for t := range b.heard {
		b.heard[t] = resize(b.heard[t], n)
	}
	f.Heard = append(f.Heard[:0], b.heard[0], b.heard[1])
	undecided := 0
	for i := range b.states {
		st := &b.states[i]
		f.Tree[i] = st.tree
		f.Parent[i], f.Hop[i] = topology.None, 0
		if st.tree >= 0 {
			f.Parent[i], f.Hop[i] = st.parent, st.hop
		}
		for t := range b.heard {
			b.heard[t][i] = st.heard[t]
		}
		if !st.decided {
			undecided++
		}
	}
	b.undecided.Add(float64(undecided))
	return f, nil
}

// kickoff starts the flood: every base station initiates as both a red and
// a blue aggregator at hop 0.
func (b *Builder) kickoff() {
	b.sendHello(0, packet.Red, 0)
	b.sendHello(0, packet.Blue, 0)
	for _, r := range b.cfg.ExtraRoots {
		b.sendHello(r, packet.Red, 0)
		b.sendHello(r, packet.Blue, 0)
	}
}

func (b *Builder) sendHello(src topology.NodeID, color packet.Color, hop uint16) {
	b.m.Send(src, &packet.Packet{
		Header: packet.Header{Kind: packet.KindHello, Src: int32(src), Dst: packet.Broadcast},
		Color:  color,
		Hop:    hop,
	})
}

func (b *Builder) decide(id topology.NodeID) {
	st := &b.states[id]
	if st.decided {
		return
	}
	st.decided = true
	nRed, nBlue := len(st.heard[0]), len(st.heard[1])
	if nRed == 0 || nBlue == 0 {
		// Should not happen (decision is armed only after both colors)
		// but lost frames cannot rescind; stay undecided.
		st.decided = false
		st.decisionArmed = false
		return
	}
	cfg := &b.cfg
	var p, pr float64
	if cfg.Adaptive {
		p = 1
		if nRed+nBlue > cfg.K {
			p = float64(cfg.K) / float64(nRed+nBlue)
		}
		pr = p * float64(nBlue) / float64(nRed+nBlue)
	} else {
		p = 1
		pr = 0.5
	}
	u := b.roleRand.Float64()
	t := 1
	switch {
	case u < pr:
		t = 0
	case u >= p:
		b.leaf.Inc()
		return
	}
	st.tree = t
	st.parent = st.best[t]
	st.hop = st.minHop[t] + 1
	b.sendHello(id, packet.TreeColor(t), st.hop)
	b.aggs[t].Inc()
}

func (b *Builder) onHello(self topology.NodeID, p *packet.Packet) {
	if len(b.cfg.Disabled) > int(self) && b.cfg.Disabled[self] {
		return
	}
	st := &b.states[self]
	t := p.Color.Tree()
	if t < 0 || t >= len(st.heard) {
		return
	}
	// No sender is heard twice: HELLOs are broadcasts, which the MAC never
	// retransmits, and every node sends each color at most once — roots
	// once at kickoff (Validate rejects a root listed twice), aggregators
	// once on deciding.
	src := topology.NodeID(p.Src)
	st.heard[t] = append(st.heard[t], src)
	if st.best[t] == topology.None || p.Hop < st.minHop[t] {
		st.best[t], st.minHop[t] = src, p.Hop
	}
	if st.decided {
		return
	}
	if !st.decisionArmed && len(st.heard[0]) > 0 && len(st.heard[1]) > 0 {
		st.decisionArmed = true
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
	Parent      []topology.NodeID // topology.None for the root and unreached nodes
	Hop         []uint16
	Reached     []bool
	HelloBytes  uint64
	HelloFrames uint64
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

// BuildTAG floods a single-tree HELLO from the base station (node 0): each
// node adopts the first heard sender as parent and rebroadcasts once. This
// is the tree TAG aggregates over.
func BuildTAG(sim *eventsim.Sim, medium *radio.Medium, m *mac.MAC, net *topology.Network, deadline eventsim.Time) *TAGResult {
	return new(TAGBuilder).Build(sim, medium, m, net, deadline)
}

// Build is BuildTAG over the TAGBuilder's reusable storage.
func (tb *TAGBuilder) Build(sim *eventsim.Sim, medium *radio.Medium, m *mac.MAC, net *topology.Network, deadline eventsim.Time) *TAGResult {
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
	startBytes := medium.TotalBytes()
	startFrames := medium.Stats().FramesSent

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
	res.HelloBytes = medium.TotalBytes() - startBytes
	res.HelloFrames = medium.Stats().FramesSent - startFrames
	return res
}

func (tb *TAGBuilder) sendHello(src topology.NodeID, hop uint16) {
	tb.m.Send(src, &packet.Packet{
		Header: packet.Header{Kind: packet.KindHello, Src: int32(src), Dst: packet.Broadcast},
		Hop:    hop,
	})
}
