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
package tree

import (
	"fmt"

	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// Role is a node's Phase I outcome.
type Role uint8

const (
	// RoleUndecided marks nodes that never heard both tree colors; they do
	// not participate in aggregation.
	RoleUndecided Role = iota
	// RoleLeaf nodes report data but never aggregate or forward.
	RoleLeaf
	// RoleRed nodes aggregate on the red tree.
	RoleRed
	// RoleBlue nodes aggregate on the blue tree.
	RoleBlue
	// RoleBase is the base station, root of both trees.
	RoleBase
)

func (r Role) String() string {
	switch r {
	case RoleUndecided:
		return "undecided"
	case RoleLeaf:
		return "leaf"
	case RoleRed:
		return "red"
	case RoleBlue:
		return "blue"
	case RoleBase:
		return "base"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Color returns the tree color of an aggregator role, or packet.NoColor.
func (r Role) Color() packet.Color {
	switch r {
	case RoleRed:
		return packet.Red
	case RoleBlue:
		return packet.Blue
	default:
		return packet.NoColor
	}
}

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
	// Obs is the optional instrumentation sink: role counters, a
	// tree-construction span with nested red/blue flood spans, and
	// per-node role-decision instants. Nil disables instrumentation;
	// observing never alters the constructed trees.
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
	return nil
}

// Result is the outcome of Phase I.
type Result struct {
	// Role per node; node 0 is RoleBase.
	Role []Role
	// Parent per node: the aggregation-tree parent of each aggregator,
	// topology.None for the base station, leaves and undecided nodes.
	Parent []topology.NodeID
	// Hop per node: tree depth of each aggregator (0 for the base
	// station); 0 for non-aggregators.
	Hop []uint16
	// RedNeighbors and BlueNeighbors are, per node, the aggregators of
	// each color it actually heard a HELLO from — the candidate slice
	// targets of Phase II. The base station appears in both lists of its
	// neighbors.
	RedNeighbors  [][]topology.NodeID
	BlueNeighbors [][]topology.NodeID
	// HelloBytes is the total radio traffic of the phase.
	HelloBytes uint64
	// HelloFrames is the number of HELLO frames transmitted.
	HelloFrames uint64
}

// Aggregators returns the IDs of the aggregators with the given role.
func (r *Result) Aggregators(role Role) []topology.NodeID {
	var out []topology.NodeID
	for i, ro := range r.Role {
		if ro == role {
			out = append(out, topology.NodeID(i))
		}
	}
	return out
}

// CoveredBoth reports whether node id heard HELLOs from both trees — the
// participation precondition of the protocol (factor (a) of Sec. IV-B.3).
// An aggregator counts itself for its own color.
func (r *Result) CoveredBoth(id topology.NodeID) bool {
	red := len(r.RedNeighbors[id])
	blue := len(r.BlueNeighbors[id])
	switch r.Role[id] {
	case RoleRed:
		red++
	case RoleBlue:
		blue++
	case RoleBase:
		return true
	}
	return red > 0 && blue > 0
}

// CanSlice reports whether node id has enough aggregator neighbors to send
// l slices per tree (factor (b) of Sec. IV-B.3): l red and l blue targets,
// counting itself for its own color.
func (r *Result) CanSlice(id topology.NodeID, l int) bool {
	red := len(r.RedNeighbors[id])
	blue := len(r.BlueNeighbors[id])
	switch r.Role[id] {
	case RoleRed:
		red++
	case RoleBlue:
		blue++
	case RoleBase:
		return true
	}
	return red >= l && blue >= l
}

// Disjoint verifies the node-disjointness invariant: no node is an
// aggregator on both trees. With a single Role per node the invariant holds
// by construction; Disjoint re-checks the parent structure: every red
// aggregator's parent is red (or the base station), and likewise for blue.
func (r *Result) Disjoint() error {
	for i, role := range r.Role {
		p := r.Parent[i]
		if role != RoleRed && role != RoleBlue {
			if p != topology.None {
				return fmt.Errorf("tree: non-aggregator %d has parent %d", i, p)
			}
			continue
		}
		if p == topology.None {
			return fmt.Errorf("tree: aggregator %d has no parent", i)
		}
		pr := r.Role[p]
		if pr != role && pr != RoleBase {
			return fmt.Errorf("tree: %v aggregator %d has %v parent %d", role, i, pr, p)
		}
	}
	return nil
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
// color (or a base station) that it heard a HELLO from during Phase I and
// that sits strictly closer to the base. Choosing only strictly-shallower
// parents keeps the parent chains acyclic and preserves the Phase III
// deepest-first transmission order without recomputing hops; choosing only
// same-color parents preserves node-disjointness, which is re-verified
// before returning. Aggregators with no such candidate are reported in
// Skipped and treated as unavailable themselves, so their children repair
// around them too (the pass iterates to a fixpoint).
//
// Parents are modified in place; callers that repair per round should
// restore the pristine Phase I parents before the next pass.
func (r *Result) RepairDead(down func(topology.NodeID) bool) (RepairOutcome, error) {
	var out RepairOutcome
	n := len(r.Role)
	avail := make([]bool, n)
	for i := range avail {
		avail[i] = !down(topology.NodeID(i))
	}
	for {
		changed := false
		for i := 0; i < n; i++ {
			id := topology.NodeID(i)
			role := r.Role[i]
			if (role != RoleRed && role != RoleBlue) || !avail[i] {
				continue
			}
			p := r.Parent[i]
			if p != topology.None && avail[p] {
				continue
			}
			cands := r.RedNeighbors[i]
			if role == RoleBlue {
				cands = r.BlueNeighbors[i]
			}
			best := topology.None
			for _, c := range cands {
				if !avail[c] {
					continue
				}
				if cr := r.Role[c]; cr != role && cr != RoleBase {
					continue
				}
				if r.Hop[c] >= r.Hop[i] {
					continue
				}
				if best == topology.None || r.Hop[c] < r.Hop[best] ||
					(r.Hop[c] == r.Hop[best] && c < best) {
					best = c
				}
			}
			if best == topology.None {
				avail[i] = false
				out.Skipped = append(out.Skipped, id)
			} else {
				r.Parent[i] = best
				out.Reattached++
			}
			changed = true
		}
		if !changed {
			break
		}
	}
	if err := r.Disjoint(); err != nil {
		return out, fmt.Errorf("tree: repair violated disjointness: %w", err)
	}
	return out, nil
}

// nodeState is the per-node Phase I state machine.
type nodeState struct {
	role                  Role
	parent                topology.NodeID
	hop                   uint16
	redFrom               []topology.NodeID // senders of red HELLOs heard
	blueFrom              []topology.NodeID
	redMinHop, blueMinHop uint16
	redParent, blueParent topology.NodeID
	decisionArmed         bool
	decided               bool
}

// Builder runs Phase I repeatedly, reusing the per-node state machines,
// the neighbor-list backing arrays, the Result, and the per-node decision
// closures across builds. A Build on a used Builder is byte-identical to
// one on a fresh Builder — state is fully reinitialized, only capacity
// survives — but it invalidates the Result of the previous Build (the
// neighbor lists share backing storage). One Builder serves one protocol
// instance; it is not safe for concurrent use.
type Builder struct {
	states    []nodeState
	res       Result
	decideFns []func()
	handlerFn mac.Handler
	kickoffFn func()

	// Per-build context, set by Build and read by the event callbacks.
	sim       *eventsim.Sim
	m         *mac.MAC
	cfg       Config
	roleRand  *rng.Stream
	roleCount [RoleBase + 1]obs.Counter
}

// BuildDisjoint runs Phase I over the given network and returns the
// constructed trees. It drives sim until cfg.Deadline; the medium's
// receivers are owned by this function for the duration of the call.
func BuildDisjoint(sim *eventsim.Sim, medium *radio.Medium, m *mac.MAC, net *topology.Network, cfg Config, rand *rng.Stream) (*Result, error) {
	return new(Builder).Build(sim, medium, m, net, cfg, rand)
}

// Build is BuildDisjoint over the Builder's reusable storage.
func (b *Builder) Build(sim *eventsim.Sim, medium *radio.Medium, m *mac.MAC, net *topology.Network, cfg Config, rand *rng.Stream) (*Result, error) {
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
		st.role = RoleUndecided
		st.parent = topology.None
		st.hop = 0
		st.redFrom = st.redFrom[:0]
		st.blueFrom = st.blueFrom[:0]
		st.redMinHop, st.blueMinHop = 0, 0
		st.redParent, st.blueParent = topology.None, topology.None
		st.decisionArmed = false
		st.decided = false
	}
	b.states[0].role = RoleBase
	b.states[0].decided = true
	for _, r := range cfg.ExtraRoots {
		if r <= 0 || int(r) >= n {
			return nil, fmt.Errorf("tree: extra root %d out of range", r)
		}
		b.states[r].role = RoleBase
		b.states[r].decided = true
	}

	startBytes := medium.TotalBytes()
	startFrames := medium.Stats().FramesSent
	b.sim = sim
	b.m = m
	b.cfg = cfg
	b.roleRand = rand.Split(1)

	b.roleCount = [RoleBase + 1]obs.Counter{}
	if cfg.Obs != nil && cfg.Obs.Reg != nil {
		for _, role := range []Role{RoleUndecided, RoleLeaf, RoleRed, RoleBlue} {
			b.roleCount[role] = cfg.Obs.Reg.Counter("ipda_tree_roles_total",
				"Phase I role decisions", obs.Label{Name: "role", Value: role.String()})
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
		m.SetHandler(topology.NodeID(i), b.handlerFn)
	}

	sim.After(0, b.kickoffFn)
	sim.Run(sim.Now() + cfg.Deadline)

	res := &b.res
	res.Role = resizeRoles(res.Role, n)
	res.Parent = resizeIDs(res.Parent, n)
	res.Hop = resizeHops(res.Hop, n)
	res.RedNeighbors = resizeNbrs(res.RedNeighbors, n)
	res.BlueNeighbors = resizeNbrs(res.BlueNeighbors, n)
	res.HelloBytes = medium.TotalBytes() - startBytes
	res.HelloFrames = medium.Stats().FramesSent - startFrames
	for i := range b.states {
		st := &b.states[i]
		res.Role[i] = st.role
		res.Parent[i] = st.parent
		res.Hop[i] = st.hop
		res.RedNeighbors[i] = st.redFrom
		res.BlueNeighbors[i] = st.blueFrom
	}
	// Drop non-aggregator parents (leaves decided no parent already).
	for i := range res.Parent {
		if res.Role[i] != RoleRed && res.Role[i] != RoleBlue {
			res.Parent[i] = topology.None
			res.Hop[i] = 0
		}
	}
	return res, nil
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
	nRed, nBlue := len(st.redFrom), len(st.blueFrom)
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
	switch {
	case u < pr:
		st.role = RoleRed
		st.parent = st.redParent
		st.hop = st.redMinHop + 1
		b.sendHello(id, packet.Red, st.hop)
	case u < p:
		st.role = RoleBlue
		st.parent = st.blueParent
		st.hop = st.blueMinHop + 1
		b.sendHello(id, packet.Blue, st.hop)
	default:
		st.role = RoleLeaf
	}
	b.roleCount[st.role].Inc()
}

func (b *Builder) onHello(self topology.NodeID, p *packet.Packet) {
	if len(b.cfg.Disabled) > int(self) && b.cfg.Disabled[self] {
		return
	}
	st := &b.states[self]
	src := topology.NodeID(p.Src)
	switch p.Color {
	case packet.Red:
		if !contains(st.redFrom, src) {
			st.redFrom = append(st.redFrom, src)
			if st.redParent == topology.None || p.Hop < st.redMinHop {
				st.redParent, st.redMinHop = src, p.Hop
			}
		}
	case packet.Blue:
		if !contains(st.blueFrom, src) {
			st.blueFrom = append(st.blueFrom, src)
			if st.blueParent == topology.None || p.Hop < st.blueMinHop {
				st.blueParent, st.blueMinHop = src, p.Hop
			}
		}
	default:
		return
	}
	if st.role == RoleBase || st.decided {
		return
	}
	if !st.decisionArmed && len(st.redFrom) > 0 && len(st.blueFrom) > 0 {
		st.decisionArmed = true
		b.sim.After(b.cfg.DecisionDelay, b.decideFns[self])
	}
}

func resizeRoles(s []Role, n int) []Role {
	if cap(s) < n {
		return make([]Role, n)
	}
	return s[:n]
}

func resizeIDs(s []topology.NodeID, n int) []topology.NodeID {
	if cap(s) < n {
		return make([]topology.NodeID, n)
	}
	return s[:n]
}

func resizeHops(s []uint16, n int) []uint16 {
	if cap(s) < n {
		return make([]uint16, n)
	}
	return s[:n]
}

func resizeNbrs(s [][]topology.NodeID, n int) [][]topology.NodeID {
	if cap(s) < n {
		return make([][]topology.NodeID, n)
	}
	return s[:n]
}

func contains(xs []topology.NodeID, x topology.NodeID) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
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
	res.Parent = resizeIDs(res.Parent, n)
	res.Hop = resizeHops(res.Hop, n)
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
