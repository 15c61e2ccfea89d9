// Package attack implements the adversaries of Section II-C and the
// experiments that measure iPDA's resistance to them.
//
// The eavesdropper is a global passive adversary who compromises each
// directed wireless link independently with probability p_x (the paper's
// abstraction for shared pool keys and compromised neighbors, Section
// IV-A.3). It hears every frame — the medium is broadcast — but learns a
// slice's plaintext only on compromised links. Intermediate aggregation
// results travel in the clear (iPDA encrypts only slices), so the
// assembled value r(j) of any aggregator is assumed overheard.
//
// A node's reading d(i) is disclosed when the adversary can complete one
// of its additive share sets, one per tree:
//
//   - every transmitted slice of a set was decrypted and the set has no
//     locally-kept share (a leaf's sets, or an aggregator's sets for the
//     trees it does not aggregate on), or
//   - the set keeps one share locally (an aggregator's own-tree set) and
//     the adversary decrypted the set's other l−1 slices plus every slice
//     the node received, recovering the local share as
//     d_ii = r(i) − Σ incoming.
//
// This is exactly the disclosure event behind Equation (11).
//
// The pollution attacker and DoS localization build on the hooks the core
// protocol exposes (Instance.Pollute, Config.Disabled).
package attack

import (
	"fmt"

	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// link is a directed wireless link.
type link struct {
	src, dst topology.NodeID
}

// Eavesdropper is the global passive adversary. Attach it to an instance
// before running a round, then query disclosure afterwards.
type Eavesdropper struct {
	px   float64
	rand *rng.Stream

	compromised map[link]bool

	// Ground truth per node, recorded via the instance hooks.
	sent      map[topology.NodeID][]obs // outgoing transmitted slices
	localKept map[topology.NodeID][]packet.Color
	incoming  map[topology.NodeID][]link // links delivering slices TO the node

	// What the adversary actually learned.
	decrypted map[link]int
}

type obs struct {
	l     link
	color packet.Color
}

// NewEavesdropper creates an adversary with per-link compromise
// probability px.
func NewEavesdropper(px float64, rand *rng.Stream) *Eavesdropper {
	return &Eavesdropper{
		px:          px,
		rand:        rand,
		compromised: make(map[link]bool),
		sent:        make(map[topology.NodeID][]obs),
		localKept:   make(map[topology.NodeID][]packet.Color),
		incoming:    make(map[topology.NodeID][]link),
		decrypted:   make(map[link]int),
	}
}

// Attach hooks the adversary into an instance. Call before Run.
func (e *Eavesdropper) Attach(in *core.Instance) {
	in.OnSlice = func(src, dst topology.NodeID, color packet.Color, share int64) {
		lk := link{src, dst}
		e.sent[src] = append(e.sent[src], obs{lk, color})
		e.incoming[dst] = append(e.incoming[dst], lk)
		if e.isCompromised(lk) {
			e.decrypted[lk]++
		}
	}
	in.OnLocalShare = func(id topology.NodeID, color packet.Color, share int64) {
		e.localKept[id] = append(e.localKept[id], color)
	}
}

// isCompromised flips the per-link coin once and caches it.
func (e *Eavesdropper) isCompromised(lk link) bool {
	if v, ok := e.compromised[lk]; ok {
		return v
	}
	v := e.rand.Bool(e.px)
	e.compromised[lk] = v
	return v
}

// Disclosed reports whether the adversary learned node id's reading in the
// observed round: on any tree the node sliced on or kept a share for, the
// node's share set for that tree is complete (see the package doc).
func (e *Eavesdropper) Disclosed(id topology.NodeID) bool {
	var kept core.TreeSet
	for _, c := range e.localKept[id] {
		kept |= 1 << c.Tree()
	}
	used := kept
	for _, o := range e.sent[id] {
		used |= 1 << o.color.Tree()
	}
	for _, t := range used.Trees() {
		color := packet.TreeColor(t)
		sentAll := true
		for _, o := range e.sent[id] {
			if o.color == color && !e.compromised[o.l] {
				sentAll = false
				break
			}
		}
		if !sentAll {
			continue
		}
		if !kept.Has(t) {
			// Complete transmitted set: reading recovered.
			return true
		}
		// One share stayed local: also need every incoming slice, to
		// subtract from the overheard assembled value r(id).
		inAll := true
		for _, lk := range e.incoming[id] {
			if !e.compromised[lk] {
				inAll = false
				break
			}
		}
		if inAll {
			return true
		}
	}
	return false
}

// DiscloseRate returns the fraction of the given nodes whose readings were
// disclosed.
func (e *Eavesdropper) DiscloseRate(nodes []topology.NodeID) float64 {
	if len(nodes) == 0 {
		return 0
	}
	d := 0
	for _, id := range nodes {
		if e.Disclosed(id) {
			d++
		}
	}
	return float64(d) / float64(len(nodes))
}

// LocalizeResult reports a DoS-polluter localization run.
type LocalizeResult struct {
	Suspect topology.NodeID
	Rounds  int // aggregation rounds spent
}

// Factory builds a fresh protocol instance with the given node-disable
// mask. Localization rebuilds trees between probes, so it needs a
// constructor rather than a live instance.
type Factory func(disabled []bool, seed uint64) (*core.Instance, error)

// PolluterBehavior makes the attacker pollute every round in which it holds
// an aggregator role, which is the persistent-DoS behaviour of Section
// III-D.
func PolluterBehavior(in *core.Instance, attacker topology.NodeID, delta int64) {
	if in.Trees.Tree[attacker] >= 0 {
		in.Pollute(attacker, delta)
	}
}

// LocalizePolluter finds a persistent polluter by group testing: it
// bisects the candidate set, disabling one half per probe round, and
// recurses into the half whose activation causes rejection (Section
// III-D's O(log N) argument). Probes use non-adaptive trees (Equation 2),
// under which every covered node aggregates, so an enabled attacker
// pollutes with near certainty.
func LocalizePolluter(n int, factory Factory, attacker topology.NodeID, delta int64, seed uint64) (*LocalizeResult, error) {
	candidates := make([]topology.NodeID, 0, n-1)
	for i := 1; i < n; i++ {
		candidates = append(candidates, topology.NodeID(i))
	}
	rounds := 0
	probe := func(disabledSet map[topology.NodeID]bool) (rejected bool, err error) {
		disabled := make([]bool, n)
		for id := range disabledSet {
			disabled[id] = true
		}
		rounds++
		in, err := factory(disabled, seed+uint64(rounds)*7919)
		if err != nil {
			return false, err
		}
		PolluterBehavior(in, attacker, delta)
		res, err := in.RunCount()
		if err != nil {
			return false, err
		}
		return !res.Accepted, nil
	}
	for len(candidates) > 1 {
		half := candidates[:len(candidates)/2]
		rest := candidates[len(candidates)/2:]
		disabledSet := make(map[topology.NodeID]bool, len(half))
		for _, id := range half {
			disabledSet[id] = true
		}
		rejected, err := probe(disabledSet)
		if err != nil {
			return nil, err
		}
		if rejected {
			// Attacker was active, hence among the enabled candidates.
			candidates = rest
		} else {
			candidates = half
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("attack: localization eliminated every candidate")
	}
	return &LocalizeResult{Suspect: candidates[0], Rounds: rounds}, nil
}
