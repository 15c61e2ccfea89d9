// Package topology models sensor network deployments as geometric graphs.
//
// A network is the connected graph G(V, E) of Section II-A of the paper: a
// vertex per sensor node, an edge per wireless link, where a link exists
// whenever two nodes are within transmission range of each other. The
// package provides the deployments the evaluation uses (uniform random over
// a square field, as in Section IV-B), plus grid and d-regular topologies
// used by the theoretical analysis, along with degree and connectivity
// queries.
package topology

import (
	"fmt"
	"math"

	"github.com/ipda-sim/ipda/internal/geom"
	"github.com/ipda-sim/ipda/internal/rng"
)

// NodeID identifies a node within one Network. The base station, when
// present, is always node 0.
type NodeID int32

// None is the sentinel "no node" value (e.g. the parent of a root).
const None NodeID = -1

// Network is an immutable deployment: node positions and the symmetric
// adjacency induced by the transmission range.
type Network struct {
	Positions []geom.Point
	Range     float64
	Bounds    geom.Rect
	adj       [][]NodeID
}

// N returns the number of nodes (including the base station).
func (n *Network) N() int { return len(n.Positions) }

// Neighbors returns the IDs of nodes adjacent to id. The returned slice is
// shared; callers must not modify it.
func (n *Network) Neighbors(id NodeID) []NodeID { return n.adj[id] }

// Degree returns the number of neighbors of id.
func (n *Network) Degree(id NodeID) int { return len(n.adj[id]) }

// AvgDegree returns the mean node degree over all nodes.
func (n *Network) AvgDegree() float64 {
	if n.N() == 0 {
		return 0
	}
	total := 0
	for _, a := range n.adj {
		total += len(a)
	}
	return float64(total) / float64(n.N())
}

// InRange reports whether a and b share a wireless link.
func (n *Network) InRange(a, b NodeID) bool {
	if a == b {
		return false
	}
	return n.Positions[a].Dist2(n.Positions[b]) <= n.Range*n.Range
}

// HopDistancesInto returns the BFS hop count from start to every node;
// unreachable nodes get -1. The queue is walked by head index over one
// full-capacity backing array, never re-sliced per pop. dist and queue are
// reused when they have capacity and returned (possibly regrown), so a
// caller that resets per run amortizes both allocations to zero.
func (n *Network) HopDistancesInto(start NodeID, dist []int, queue []NodeID) ([]int, []NodeID) {
	if cap(dist) < n.N() {
		dist = make([]int, n.N())
	}
	dist = dist[:n.N()]
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	if cap(queue) < n.N() {
		queue = make([]NodeID, 0, n.N())
	}
	queue = append(queue[:0], start)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range n.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist, queue
}

// buildAdjacency returns the neighbour lists of positions in storage of
// their own.
func buildAdjacency(positions []geom.Point, bounds geom.Rect, radius float64) [][]NodeID {
	var a adjacency
	return a.build(positions, bounds, radius)
}

// Config describes a uniform random deployment, the scenario of Section
// IV-B: N sensor nodes placed uniformly at random on a square field with a
// fixed transmission range; the base station is placed at the field center.
type Config struct {
	Nodes     int     // number of sensor nodes, excluding the base station
	FieldSide float64 // side of the square deployment area, meters
	Range     float64 // transmission range, meters
}

// PaperConfig returns the simulation setup of Section IV-B: a 400 m x 400 m
// field and 50 m transmission range.
func PaperConfig(nodes int) Config {
	return Config{Nodes: nodes, FieldSide: 400, Range: 50}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("topology: Nodes must be positive, got %d", c.Nodes)
	}
	if c.FieldSide <= 0 {
		return fmt.Errorf("topology: FieldSide must be positive, got %v", c.FieldSide)
	}
	if c.Range <= 0 {
		return fmt.Errorf("topology: Range must be positive, got %v", c.Range)
	}
	return nil
}

// Random deploys a network per c using randomness from r. Node 0 is the
// base station at the field center; nodes 1..Nodes are uniform random.
func Random(c Config, r *rng.Stream) (*Network, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	bounds := geom.Square(c.FieldSide)
	positions := make([]geom.Point, c.Nodes+1)
	place(positions, bounds, r)
	return &Network{
		Positions: positions,
		Range:     c.Range,
		Bounds:    bounds,
		adj:       buildAdjacency(positions, bounds, c.Range),
	}, nil
}

// place puts the base station at the center of the square bounds and the
// other nodes uniformly at random over it, drawing X then Y per node.
func place(positions []geom.Point, bounds geom.Rect, r *rng.Stream) {
	side := bounds.Width()
	positions[0] = bounds.Center()
	for i := 1; i < len(positions); i++ {
		positions[i] = geom.Point{X: r.Float64() * side, Y: r.Float64() * side}
	}
}

// Grid deploys (side x side) nodes on a regular lattice with the given
// spacing, plus the base station at the center. Useful for deterministic
// tests: every interior node has the same degree.
func Grid(side int, spacing, radius float64) (*Network, error) {
	if side <= 0 || spacing <= 0 || radius <= 0 {
		return nil, fmt.Errorf("topology: invalid grid parameters side=%d spacing=%v radius=%v", side, spacing, radius)
	}
	extent := spacing * float64(side-1)
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: extent + 1, MaxY: extent + 1}
	positions := make([]geom.Point, 0, side*side+1)
	positions = append(positions, geom.Point{X: extent / 2, Y: extent / 2})
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			positions = append(positions, geom.Point{X: float64(x) * spacing, Y: float64(y) * spacing})
		}
	}
	return &Network{
		Positions: positions,
		Range:     radius,
		Bounds:    bounds,
		adj:       buildAdjacency(positions, bounds, radius),
	}, nil
}

// ExpectedAvgDegree returns the analytic mean degree of a uniform random
// deployment with the given parameters: (N)·π·r²/A, ignoring boundary
// effects, where N counts the OTHER nodes a given node might link to.
func ExpectedAvgDegree(c Config) float64 {
	area := c.FieldSide * c.FieldSide
	return float64(c.Nodes) * math.Pi * c.Range * c.Range / area
}
