// Package mtree generalizes iPDA's Phase I from two disjoint aggregation
// trees to m of them — the extension Section III-B sketches ("the disjoint
// aggregation tree construction phase can be easily generalized to build
// multiple aggregation trees (m > 2); however ... the network must be very
// dense").
//
// Phase I generalizes the paper's Equation (1): upon hearing HELLOs from
// all m trees, a node becomes an aggregator with probability
// p = min(1, k/ΣN_i) and joins tree t with probability proportional to
// (ΣN − N_t) — the under-represented trees are favored, exactly as red
// and blue balance each other in the m = 2 protocol. Everything after
// Phase I is core's: Deploy hands the m-tree forest to a core.Instance,
// whose round engine runs Phases II and III per tree (l slices to each of
// the m trees, m·l − 1 transmissions per aggregator, then per-tree
// additive aggregation) and whose majority verdict addresses the paper's
// stated future work (Section VI, collusive attacks). With m = 2, two
// colluding aggregators on different trees that apply the same delta fool
// the |S_b − S_r| ≤ Th check; with m = 3 the honest third tree outvotes
// them, the base station still recovers the true total, and it identifies
// which trees were polluted.
package mtree

import (
	"errors"
	"fmt"

	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/linksec"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/tree"
)

// New deploys a fresh core instance with m trees built by the generalized
// Phase I (see Deploy).
func New(net *topology.Network, cfg core.Config, m int, seed uint64) (*core.Instance, error) {
	in := &core.Instance{}
	if err := Deploy(in, net, cfg, m, seed); err != nil {
		return nil, err
	}
	return in, nil
}

// Deploy re-deploys in over net with m trees built by the generalized
// Phase I flood, reusing the engine's simulator, medium, MAC tables,
// cipher pool, and round buffers; prior results are invalidated. The
// flood implements only Equation (1), so cfg.Tree.Adaptive must be set,
// and cfg.Tree.K must be at least m. A nil cfg.Keys selects a pairwise
// scheme keyed apart from core's default.
func Deploy(in *core.Instance, net *topology.Network, cfg core.Config, m int, seed uint64) error {
	switch {
	case m < 2 || m > tree.MaxTrees:
		return fmt.Errorf("mtree: tree count must be in [2, %d], got %d", tree.MaxTrees, m)
	case cfg.Tree.K < m:
		return fmt.Errorf("mtree: K must be >= the tree count, got %d < %d", cfg.Tree.K, m)
	case !cfg.Tree.Adaptive:
		return errors.New("mtree: Tree.Adaptive=false is unsupported: the m-tree flood implements only Equation (1)")
	}
	if cfg.Keys == nil {
		cfg.Keys = linksec.NewPairwise(seed ^ 0x6d74726565)
	}
	return in.Deploy(net, cfg, seed, m, func(root *rng.Stream) (*tree.Forest, error) {
		return buildTrees(in, root, m)
	})
}

// buildTrees runs the generalized Phase I flood on in's freshly reset
// radio stack and returns its m-tree forest. Like package tree's two-tree
// flood, every base station starts every tree at hop 0, and disabled
// nodes stay silent and undecided.
func buildTrees(in *core.Instance, root *rng.Stream, m int) (*tree.Forest, error) {
	sim, link, cfg := in.Sim, in.MAC, &in.Cfg
	roleRand := root.Split(2)
	n := in.Net.N()
	f := &tree.Forest{
		Tree:   make([]int, n),
		Parent: make([]topology.NodeID, n),
		Hop:    make([]uint16, n),
		Heard:  make([][][]topology.NodeID, m),
	}
	for t := range f.Heard {
		f.Heard[t] = make([][]topology.NodeID, n)
	}
	// Per node and tree (index node·m + tree): the lowest-hop HELLO sender
	// heard and its hop.
	best := make([]topology.NodeID, n*m)
	minHop := make([]uint16, n*m)
	armed := make([]bool, n)
	decided := make([]bool, n)
	for i := range f.Tree {
		f.Tree[i] = tree.NoTree
		f.Parent[i] = topology.None
	}
	for i := range best {
		best[i] = topology.None
	}
	roots := []topology.NodeID{0}
	for _, r := range cfg.ExtraRoots {
		if r <= 0 || int(r) >= n {
			return nil, fmt.Errorf("mtree: extra root %d out of range", r)
		}
		roots = append(roots, r)
	}
	for _, r := range roots {
		f.Tree[r] = tree.Root
		decided[r] = true
	}

	sendHello := func(src topology.NodeID, t int, hop uint16) {
		link.Send(src, &packet.Packet{
			Header: packet.Header{Kind: packet.KindHello, Src: int32(src), Dst: packet.Broadcast},
			Color:  packet.TreeColor(t),
			Hop:    hop,
		})
	}

	decide := func(id topology.NodeID) {
		if decided[id] {
			return
		}
		decided[id] = true
		total := 0
		for t := range f.Heard {
			total += len(f.Heard[t][id])
		}
		p := 1.0
		if total > cfg.Tree.K {
			p = float64(cfg.Tree.K) / float64(total)
		}
		if !roleRand.Bool(p) {
			return // leaf
		}
		// Join an under-represented tree: tree t weighs total − N_t, and
		// the weights sum to (m − 1)·total.
		u := roleRand.Float64() * float64((m-1)*total)
		choice := 0
		for t := range f.Heard {
			u -= float64(total - len(f.Heard[t][id]))
			if u < 0 {
				choice = t
				break
			}
		}
		k := int(id)*m + choice
		f.Tree[id], f.Parent[id], f.Hop[id] = choice, best[k], minHop[k]+1
		sendHello(id, choice, f.Hop[id])
	}

	onHello := func(self topology.NodeID, p *packet.Packet) {
		if len(cfg.Disabled) > int(self) && cfg.Disabled[self] {
			return
		}
		t := p.Color.Tree()
		if t < 0 || t >= m {
			return
		}
		// As in package tree, no sender is heard twice: broadcasts are
		// never retransmitted and every node sends each tree's HELLO at
		// most once (core.Config.Validate rejects a root listed twice).
		src := topology.NodeID(p.Src)
		f.Heard[t][self] = append(f.Heard[t][self], src)
		if k := int(self)*m + t; best[k] == topology.None || p.Hop < minHop[k] {
			best[k], minHop[k] = src, p.Hop
		}
		if decided[self] || armed[self] {
			return
		}
		for tt := range f.Heard {
			if len(f.Heard[tt][self]) == 0 {
				return
			}
		}
		armed[self] = true
		sim.After(cfg.Tree.DecisionDelay, func() { decide(self) })
	}

	handler := func(self topology.NodeID, p *packet.Packet) {
		if p.Kind == packet.KindHello {
			onHello(self, p)
		}
	}
	for i := 0; i < n; i++ {
		link.SetHandler(topology.NodeID(i), handler)
	}
	sim.After(0, func() {
		for _, r := range roots {
			for t := 0; t < m; t++ {
				sendHello(r, t, 0)
			}
		}
	})
	sim.Run(sim.Now() + cfg.Tree.Deadline)
	return f, nil
}
