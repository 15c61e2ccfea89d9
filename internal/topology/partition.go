package topology

import (
	"fmt"
	"math"

	"github.com/ipda-sim/ipda/internal/geom"
)

// Region is one rectangular cell of a spatial partition: the nodes whose
// positions fall inside its bounds, in ascending ID order.
type Region struct {
	Bounds geom.Rect
	Owned  []NodeID
}

// Partition is a grid decomposition of a deployment into rectangular
// regions, the spatial substrate of the sharded simulation: each region
// becomes one cluster of the hierarchical mode. It is a pure function of
// (net, want): same inputs, same partition — region membership never
// depends on how many workers later execute the regions.
type Partition struct {
	Net     *Network
	Regions []Region
	Owner   []int32 // node -> owning region index
}

// R returns the number of regions.
func (p *Partition) R() int { return len(p.Regions) }

// PartitionGrid splits net's bounding rectangle into a near-square grid of
// at least 1 and approximately want regions and assigns every node to the
// region containing its position. want is a request, not a contract: the
// actual region count is cols×rows for the chosen grid shape (query R()).
func PartitionGrid(net *Network, want int) *Partition {
	if want < 1 {
		want = 1
	}
	w, h := net.Bounds.Width(), net.Bounds.Height()
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("topology: PartitionGrid over degenerate bounds %+v", net.Bounds))
	}
	// Shape the grid to the field's aspect ratio so regions stay near-square
	// (compact regions minimize border area, hence the links that cross a
	// region border).
	rows := int(math.Round(math.Sqrt(float64(want) * h / w)))
	if rows < 1 {
		rows = 1
	}
	cols := (want + rows - 1) / rows
	if cols < 1 {
		cols = 1
	}

	p := &Partition{
		Net:     net,
		Regions: make([]Region, cols*rows),
		Owner:   make([]int32, net.N()),
	}
	cellW, cellH := w/float64(cols), h/float64(rows)
	for ry := 0; ry < rows; ry++ {
		for rx := 0; rx < cols; rx++ {
			i := ry*cols + rx
			p.Regions[i] = Region{
				Bounds: geom.Rect{
					MinX: net.Bounds.MinX + float64(rx)*cellW,
					MinY: net.Bounds.MinY + float64(ry)*cellH,
					MaxX: net.Bounds.MinX + float64(rx+1)*cellW,
					MaxY: net.Bounds.MinY + float64(ry+1)*cellH,
				},
			}
		}
	}
	cellIdx := func(pt geom.Point) int {
		cx := int((pt.X - net.Bounds.MinX) / cellW)
		cy := int((pt.Y - net.Bounds.MinY) / cellH)
		if cx < 0 {
			cx = 0
		} else if cx >= cols {
			cx = cols - 1
		}
		if cy < 0 {
			cy = 0
		} else if cy >= rows {
			cy = rows - 1
		}
		return cy*cols + cx
	}
	// Count each region's nodes, then carve its Owned list as a capped
	// window of one array: one allocation for every region.
	count := make([]int, len(p.Regions))
	for id, pt := range net.Positions {
		r := cellIdx(pt)
		p.Owner[id] = int32(r)
		count[r]++
	}
	owned := make([]NodeID, net.N())
	for r, c := range count {
		if c > 0 {
			p.Regions[r].Owned, owned = owned[:0:c], owned[c:]
		}
	}
	for id, r := range p.Owner {
		p.Regions[r].Owned = append(p.Regions[r].Owned, NodeID(id))
	}
	return p
}
