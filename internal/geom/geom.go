// Package geom provides the 2D geometry primitives the deployment and
// radio-range models are built on: points, rectangles, and a uniform-grid
// spatial index that builds every point's fixed-radius neighbour row.
package geom

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Point is a location in the deployment plane, in meters.
type Point struct {
	X, Y float64
}

func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Dist2 returns the squared Euclidean distance between p and q; range
// comparisons use it to avoid the square root.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Rect is an axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Square returns the square [0,side] x [0,side].
func Square(side float64) Rect {
	return Rect{0, 0, side, side}
}

// Width returns the extent of r along X.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extent of r along Y.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// GridIndex is a uniform-grid spatial index over a fixed set of points,
// specialized for building every point's fixed-radius neighbour row at
// once: cells are sized to the radius, so a point's neighbours lie in the
// 3×3 block of cells around its own.
//
// Points are bucketed into cell order (row-major cells, point-index order
// within a cell) with their coordinates copied alongside, so the three
// cells x−1..x+1 of one grid row form a single contiguous span of
// positions and a row scan reads coordinates sequentially instead of
// gathering them by point index. Storage is CSR-style — one offsets table
// and flat arrays — grown geometrically and only when a deployment
// outgrows it, so rebuilding at wildly different sizes (a 100k-node field
// after a 400-node one, or repartitioning shard regions per trial)
// reaches a zero-allocation steady state.
type GridIndex struct {
	bounds    Rect
	cellSize  float64
	cols      int
	rows      int
	cellStart []int32 // CSR offsets into order/xy; len cols*rows+1
	order     []int32 // point indices in cell order
	xy        []Point // xy[k] = points[order[k]]
	cellOf    []int32 // per-point cell, Rebuild scratch
}

// growI32 returns s resized to n, reallocating only when capacity is
// exceeded and then growing geometrically so a sequence of rebuilds at
// increasing sizes settles after O(log max) allocations.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		c := 2 * cap(s)
		if c < n {
			c = n
		}
		return make([]int32, n, c)
	}
	return s[:n]
}

// Rebuild reinitializes g over a new point set, reusing the backing arrays
// from previous builds: an index that is rebuilt repeatedly over similarly
// sized deployments stops allocating once it has grown to its steady-state
// shape. Contents are identical to a fresh index rebuilt over the same
// inputs, so rows do not depend on the index's history. The radius must be
// positive.
func (g *GridIndex) Rebuild(bounds Rect, points []Point, radius float64) {
	if radius <= 0 {
		panic("geom: GridIndex radius must be positive")
	}
	g.bounds = bounds
	g.cellSize = radius
	g.cols = max(int(math.Ceil(bounds.Width()/radius))+1, 1)
	g.rows = max(int(math.Ceil(bounds.Height()/radius))+1, 1)
	// Counting sort: count per cell, prefix-sum into offsets, then place
	// each point at its cell's cursor. Placement scans points in index
	// order, so each cell's contents are in point-index order.
	ncells := g.cols * g.rows
	g.cellStart = growI32(g.cellStart, ncells+1)
	clear(g.cellStart)
	g.cellOf = growI32(g.cellOf, len(points))
	for i, p := range points {
		c := g.cell(p)
		g.cellOf[i] = int32(c)
		g.cellStart[c+1]++
	}
	for c := 1; c <= ncells; c++ {
		g.cellStart[c] += g.cellStart[c-1]
	}
	// The cursors run in cellStart itself: placement advances cellStart[c]
	// from the start of cell c to its end, the start of cell c+1, so
	// shifting the table one slot right restores the offsets.
	g.order = growI32(g.order, len(points))
	if cap(g.xy) < len(points) {
		g.xy = make([]Point, len(points), max(2*cap(g.xy), len(points)))
	}
	g.xy = g.xy[:len(points)]
	cursor := g.cellStart[:ncells]
	for i, p := range points {
		c := g.cellOf[i]
		k := cursor[c]
		g.order[k] = int32(i)
		g.xy[k] = p
		cursor[c]++
	}
	copy(g.cellStart[1:], g.cellStart[:ncells])
	g.cellStart[0] = 0
}

func (g *GridIndex) cell(p Point) int {
	cx := int((p.X - g.bounds.MinX) / g.cellSize)
	cy := int((p.Y - g.bounds.MinY) / g.cellSize)
	cx = clamp(cx, 0, g.cols-1)
	cy = clamp(cy, 0, g.rows-1)
	return cy*g.cols + cx
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Order returns the point indices in cell order: position k of every row
// span and of AppendRows belongs to point Order()[k]. The slice is shared;
// callers must not modify it.
func (g *GridIndex) Order() []int32 { return g.order }

// AppendRows appends to dst the neighbour rows of the points at cell-order
// positions k0..k1-1 of g — for each, the indices of all other points
// within the index's radius, as ID — writes row k's length to deg[k-k0],
// and returns the extended slice. A row lists its neighbours by cell row
// offset (−1, 0, +1), then cell column offset, then point index. Disjoint
// position ranges touch disjoint state, so callers may fill them
// concurrently.
func AppendRows[ID ~int32](g *GridIndex, dst []ID, deg []int32, k0, k1 int) []ID {
	if k0 >= k1 {
		return dst
	}
	r2 := g.cellSize * g.cellSize
	// The first cell whose span ends past k0.
	c := sort.Search(g.cols*g.rows, func(c int) bool { return int(g.cellStart[c+1]) > k0 })
	for k := k0; k < k1; c++ {
		end := int(g.cellStart[c+1])
		if end <= k {
			continue // empty cell
		}
		cx, cy := c%g.cols, c/g.cols
		x0, x1 := max(cx-1, 0), min(cx+1, g.cols-1)
		y0, y1 := max(cy-1, 0), min(cy+1, g.rows-1)
		for ; k < end && k < k1; k++ {
			p := g.xy[k]
			n0 := len(dst)
			for y := y0; y <= y1; y++ {
				lo, hi := int(g.cellStart[y*g.cols+x0]), int(g.cellStart[y*g.cols+x1+1])
				if y != cy {
					dst = appendNear(dst, p, r2, g.xy[lo:hi], g.order[lo:hi])
					continue
				}
				// The node's own grid row: the span around itself.
				dst = appendNear(dst, p, r2, g.xy[lo:k], g.order[lo:k])
				dst = appendNear(dst, p, r2, g.xy[k+1:hi], g.order[k+1:hi])
			}
			deg[k-k0] = int32(len(dst) - n0)
		}
	}
	return dst
}

// appendNear appends to dst the ids of the span points within squared
// distance r2 of p, in span order. Every candidate is written and the length
// advances only on a hit, so the loop carries no branch on the distance
// test: about a third of a span's candidates hit, at random.
func appendNear[ID ~int32](dst []ID, p Point, r2 float64, xy []Point, ids []int32) []ID {
	n := len(dst)
	dst = slices.Grow(dst, len(xy))
	buf := dst[:n+len(xy)]
	ids = ids[:len(xy)]
	for q, pt := range xy {
		buf[n] = ID(ids[q])
		if p.Dist2(pt) <= r2 {
			n++
		}
	}
	return dst[:n]
}
