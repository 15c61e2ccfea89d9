package topology

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/ipda-sim/ipda/internal/geom"
	"github.com/ipda-sim/ipda/internal/rng"
)

// bruteAdjacency is the O(n²) reference for every deployment's neighbour
// lists: each node links to every other node within radius, listed by
// (cell-row offset, cell-column offset, ID), with cells of side radius
// anchored at the bounds' minimum corner and points past the far edge
// clamped into the last row or column.
func bruteAdjacency(positions []geom.Point, bounds geom.Rect, radius float64) [][]NodeID {
	cols := max(int(math.Ceil(bounds.Width()/radius))+1, 1)
	rows := max(int(math.Ceil(bounds.Height()/radius))+1, 1)
	cell := func(p geom.Point) (int, int) {
		cx := min(max(int((p.X-bounds.MinX)/radius), 0), cols-1)
		cy := min(max(int((p.Y-bounds.MinY)/radius), 0), rows-1)
		return cx, cy
	}
	adj := make([][]NodeID, len(positions))
	for i, p := range positions {
		row := []NodeID{}
		for j, q := range positions {
			if j != i && p.Dist2(q) <= radius*radius {
				row = append(row, NodeID(j))
			}
		}
		ix, iy := cell(p)
		key := func(j NodeID) [3]int {
			jx, jy := cell(positions[j])
			return [3]int{jy - iy, jx - ix, int(j)}
		}
		slices.SortFunc(row, func(a, b NodeID) int {
			ka, kb := key(a), key(b)
			return slices.Compare(ka[:], kb[:])
		})
		adj[i] = row
	}
	return adj
}

// pts pairs up coordinates into points.
func pts(xy ...float64) []geom.Point {
	out := make([]geom.Point, 0, len(xy)/2)
	for i := 0; i+1 < len(xy); i += 2 {
		out = append(out, geom.Point{X: xy[i], Y: xy[i+1]})
	}
	return out
}

// rowsOf copies a network's neighbour lists, empty rows as empty slices.
func rowsOf(net *Network) [][]NodeID {
	out := make([][]NodeID, net.N())
	for i := range out {
		out[i] = append([]NodeID{}, net.Neighbors(NodeID(i))...)
	}
	return out
}

func checkRows(t *testing.T, name string, got, want [][]NodeID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: node %d neighbours %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestAdjacencyMatchesBruteForce checks the neighbour lists of Random,
// Pool.Random and Grid, and of the builder at every split count from one
// to seven goroutines, against bruteAdjacency: fields of several sizes,
// ranges that do not divide the side, points exactly on cell boundaries
// and on the clamped far edge, and node counts on both sides of the
// parallel floor.
func TestAdjacencyMatchesBruteForce(t *testing.T) {
	var pool Pool // one pool across cases: reuse must not leak into rows
	var b adjacency
	splits := func(name string, positions []geom.Point, bounds geom.Rect, radius float64, want [][]NodeID) {
		t.Helper()
		for w := 1; w <= 7; w++ {
			got := b.buildParts(positions, bounds, radius, w)
			checkRows(t, fmt.Sprintf("%s, %d parts", name, w), got, want)
		}
	}

	configs := []Config{
		PaperConfig(200),
		PaperConfig(600),
		{Nodes: 199, FieldSide: 100, Range: 12},                     // range does not divide the side
		{Nodes: 300, FieldSide: 370, Range: 47},                     // nor here
		{Nodes: 2 * adjParallelFloor, FieldSide: 900, Range: 50},    // 2,049 nodes
		{Nodes: 2*adjParallelFloor - 2, FieldSide: 900, Range: 50},  // 2,047 nodes
		{Nodes: 3*adjParallelFloor + 4, FieldSide: 1100, Range: 50}, // 3,077 nodes
		{Nodes: 1, FieldSide: 10, Range: 5},
	}
	for _, c := range configs {
		name := fmt.Sprintf("%d nodes on %v m, range %v", c.Nodes+1, c.FieldSide, c.Range)
		net, err := Random(c, rng.New(uint64(c.Nodes)))
		if err != nil {
			t.Fatal(err)
		}
		want := bruteAdjacency(net.Positions, net.Bounds, c.Range)
		checkRows(t, "Random, "+name, rowsOf(net), want)
		pooled, err := pool.Random(c, rng.New(uint64(c.Nodes)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pooled.Positions, net.Positions) {
			t.Fatalf("Pool.Random, %s: positions differ from Random", name)
		}
		checkRows(t, "Pool.Random, "+name, rowsOf(pooled), want)
		splits(name, net.Positions, net.Bounds, c.Range, want)
	}

	// Lattices whose spacing equals the range put every node on a cell
	// boundary and every lattice neighbour at exactly the range.
	for _, g := range []struct {
		side            int
		spacing, radius float64
	}{{7, 50, 50}, {12, 25, 50}, {5, 30, 45}} {
		net, err := Grid(g.side, g.spacing, g.radius)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("Grid(%d, %v, %v)", g.side, g.spacing, g.radius)
		want := bruteAdjacency(net.Positions, net.Bounds, g.radius)
		checkRows(t, name, rowsOf(net), want)
		splits(name, net.Positions, net.Bounds, g.radius, want)
	}

	// Hand-placed fields: points on the far edge and corner, which clamp
	// into the last cell column and row, points on interior cell
	// boundaries, a pair exactly one range apart across a boundary, and
	// an isolated node.
	hand := []struct {
		name      string
		positions []geom.Point
		bounds    geom.Rect
	}{
		{"far edge", pts(400, 400, 399, 399, 400, 350, 350, 400, 400, 0, 0, 400), geom.Square(400)},
		{"cell boundaries", pts(50, 50, 100, 50, 100, 100, 150, 100, 50, 99.99, 0, 0), geom.Square(400)},
		{"isolated", pts(10, 10, 20, 10, 300, 300), geom.Square(400)},
		{"offset bounds", pts(-100, -100, -50, -100, 0, 0, -1, -1), geom.Rect{MinX: -100, MinY: -100, MaxX: 0, MaxY: 0}},
		{"one node", pts(5, 5), geom.Square(10)},
	}
	for _, h := range hand {
		want := bruteAdjacency(h.positions, h.bounds, 50)
		checkRows(t, h.name, buildAdjacency(h.positions, h.bounds, 50), want)
		splits(h.name, h.positions, h.bounds, 50, want)
	}
}

// TestConcurrentBuildsShareWorkers runs split builds on several goroutines
// at once: every builder hands its parts to the one set of worker
// goroutines, and each must still get exactly its own rows.
func TestConcurrentBuildsShareWorkers(t *testing.T) {
	const builders = 4
	type field struct {
		net  *Network
		want [][]NodeID
	}
	fields := make([]field, builders)
	for i := range fields {
		net, err := Random(Config{Nodes: 900 + 37*i, FieldSide: 500, Range: 50}, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		fields[i] = field{net, bruteAdjacency(net.Positions, net.Bounds, 50)}
	}
	var wg sync.WaitGroup
	for i := 0; i < builders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var b adjacency
			for round := 0; round < 6; round++ {
				f := fields[(i+round)%builders]
				got := b.buildParts(f.net.Positions, f.net.Bounds, 50, 2+round%3)
				for k := range f.want {
					if !slices.Equal(got[k], f.want[k]) {
						t.Errorf("builder %d round %d: node %d neighbours %v, want %v", i, round, k, got[k], f.want[k])
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
}
