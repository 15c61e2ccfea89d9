package topology

import (
	"github.com/ipda-sim/ipda/internal/geom"
	"github.com/ipda-sim/ipda/internal/rng"
)

// Pool generates random deployments into reused backing storage — the
// into-buffer counterpart of Random for trial campaigns that deploy
// thousands of networks of similar size. Positions are written into one
// persistent slice and the adjacency into the pool's CSR builder, which
// slices node rows out of its row arrays only once they have stopped
// growing. After the first few deployments at a given size the pool
// allocates nothing.
//
// A Pool is not safe for concurrent use, and each Random call invalidates
// the Network returned by the previous one (the same backing storage is
// rewritten). Both properties match the per-worker arena model: one pool
// per worker, one live deployment per trial.
//
// Determinism: Pool.Random consumes exactly the same draws from r as
// topology.Random and produces an identical deployment — positions,
// neighbor sets, and neighbor order — so a trial cannot tell which
// constructor built its network.
type Pool struct {
	net Network
	adj adjacency // the CSR neighbour lists net.adj slices

	// Induced-subnet storage, separate from Random's so one pool can hold
	// a live global deployment while slicing region subnets out of it.
	inet   Network
	iflat  []NodeID
	ioffs  []int32
	g2l    []int32  // global->local ID map, -1 when absent
	g2lSet []NodeID // which g2l entries are set, for O(|members|) clearing
}

// Random deploys a network per c using randomness from r, reusing the
// pool's backing storage. The returned Network is valid until the next
// Random call on this pool.
func (p *Pool) Random(c Config, r *rng.Stream) (*Network, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := c.Nodes + 1
	bounds := geom.Square(c.FieldSide)
	if cap(p.net.Positions) < n {
		p.net.Positions = make([]geom.Point, n)
	}
	p.net.Positions = p.net.Positions[:n]
	place(p.net.Positions, bounds, r)
	p.net.Range = c.Range
	p.net.Bounds = bounds

	p.net.adj = p.adj.build(p.net.Positions, bounds, c.Range)
	return &p.net, nil
}

// Induced builds the subnetwork of parent induced by members, with nodes
// renumbered to local IDs 0..len(members)-1 in members order — so the
// caller picks the local base station by putting it first. Edges are
// exactly parent's edges between members, neighbor lists in parent order,
// positions/Range/Bounds copied from parent. Storage is pooled separately
// from Random's, so a pool may hold a live global deployment and slice
// region subnets out of it; each Induced call invalidates the network the
// previous one returned. The cost is O(Σ degree(members)), independent of
// parent.N() apart from a one-time ID-map allocation at the largest parent
// size seen.
func (p *Pool) Induced(parent *Network, members []NodeID) *Network {
	n := len(members)
	if n == 0 {
		panic("topology: Induced over empty member set")
	}
	// Reset only the entries the previous call set: the map stays as large
	// as the largest parent ever seen, but clearing is O(|previous members|).
	for _, g := range p.g2lSet {
		p.g2l[g] = -1
	}
	p.g2lSet = p.g2lSet[:0]
	old := len(p.g2l)
	if cap(p.g2l) < parent.N() {
		c := 2 * cap(p.g2l)
		if c < parent.N() {
			c = parent.N()
		}
		g := make([]int32, parent.N(), c)
		copy(g, p.g2l)
		p.g2l = g
	} else {
		p.g2l = p.g2l[:parent.N()]
	}
	// Entries below old are -1 (cleared above); newly exposed ones must be
	// marked absent too, whether fresh storage or regrowth after a shrink.
	for i := old; i < len(p.g2l); i++ {
		p.g2l[i] = -1
	}
	for l, g := range members {
		if p.g2l[g] != -1 {
			panic("topology: Induced member listed twice")
		}
		p.g2l[g] = int32(l)
		p.g2lSet = append(p.g2lSet, g)
	}

	if cap(p.inet.Positions) < n {
		p.inet.Positions = make([]geom.Point, n)
	}
	p.inet.Positions = p.inet.Positions[:n]
	for l, g := range members {
		p.inet.Positions[l] = parent.Positions[g]
	}
	p.inet.Range = parent.Range
	p.inet.Bounds = parent.Bounds

	// Same two-pass CSR layout as Random: append all rows to the flat
	// backing first, slice rows out only once it has stopped growing.
	if cap(p.ioffs) < n+1 {
		p.ioffs = make([]int32, n+1)
	}
	p.ioffs = p.ioffs[:n+1]
	p.iflat = p.iflat[:0]
	for l, g := range members {
		p.ioffs[l] = int32(len(p.iflat))
		for _, nb := range parent.Neighbors(g) {
			if lnb := p.g2l[nb]; lnb >= 0 {
				p.iflat = append(p.iflat, NodeID(lnb))
			}
		}
	}
	p.ioffs[n] = int32(len(p.iflat))
	if cap(p.inet.adj) < n {
		p.inet.adj = make([][]NodeID, n)
	}
	p.inet.adj = p.inet.adj[:n]
	for l := 0; l < n; l++ {
		lo, hi := p.ioffs[l], p.ioffs[l+1]
		p.inet.adj[l] = p.iflat[lo:hi:hi]
	}
	return &p.inet
}
