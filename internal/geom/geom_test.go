package geom

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/ipda-sim/ipda/internal/rng"
)

func TestDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d2 := a.Dist2(b); math.Abs(d2-25) > 1e-12 {
		t.Fatalf("Dist2 = %v, want 25", d2)
	}
}

func TestDistSymmetric(t *testing.T) {
	if err := quick.Check(func(ax, ay, bx, by float64) bool {
		a := Point{math.Mod(ax, 1e6), math.Mod(ay, 1e6)}
		b := Point{math.Mod(bx, 1e6), math.Mod(by, 1e6)}
		return a.Dist2(b) == b.Dist2(a)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRect(t *testing.T) {
	r := Square(400)
	if r.Width() != 400 || r.Height() != 400 {
		t.Fatalf("Square(400) dims %v x %v", r.Width(), r.Height())
	}
	if c := r.Center(); c != (Point{200, 200}) {
		t.Fatalf("Center %v", c)
	}
}

// newIndex builds a fresh index over points.
func newIndex(bounds Rect, points []Point, radius float64) *GridIndex {
	g := &GridIndex{}
	g.Rebuild(bounds, points, radius)
	return g
}

// bruteNeighbors is the reference implementation the grid index must match.
func bruteNeighbors(points []Point, i int, radius float64) []int {
	var out []int
	for j, q := range points {
		if j != i && points[i].Dist2(q) <= radius*radius {
			out = append(out, j)
		}
	}
	return out
}

// rowsByPoint computes every row with AppendRows, in parts of the given
// size, and returns them indexed by point.
func rowsByPoint(g *GridIndex, part int) [][]int {
	n := len(g.Order())
	deg := make([]int32, n)
	var flat []int32
	for k0 := 0; k0 < n; k0 += part {
		flat = AppendRows(g, flat, deg[k0:], k0, min(k0+part, n))
	}
	rows := make([][]int, n)
	pos := 0
	for k, i := range g.Order() {
		for _, j := range flat[pos : pos+int(deg[k])] {
			rows[i] = append(rows[i], int(j))
		}
		pos += int(deg[k])
	}
	return rows
}

func TestGridIndexMatchesBruteForce(t *testing.T) {
	r := rng.New(99)
	bounds := Square(400)
	const n = 500
	points := make([]Point, n)
	for i := range points {
		points[i] = Point{r.Float64() * 400, r.Float64() * 400}
	}
	const radius = 50
	g := newIndex(bounds, points, radius)
	// Parts that split cells mid-span must give the same rows as one pass.
	whole := rowsByPoint(g, n)
	for _, part := range []int{1, 7, 64} {
		if got := rowsByPoint(g, part); !reflect.DeepEqual(got, whole) {
			t.Fatalf("rows in parts of %d differ from one pass", part)
		}
	}
	for i := 0; i < n; i++ {
		got := append([]int(nil), whole[i]...)
		want := bruteNeighbors(points, i, radius)
		sort.Ints(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: neighbors %v, want %v", i, got, want)
		}
	}
}

func TestGridIndexPointOnBoundary(t *testing.T) {
	// Points exactly on the max boundary must be indexed, not lost.
	points := []Point{{400, 400}, {399, 399}}
	g := newIndex(Square(400), points, 50)
	if got := rowsByPoint(g, 2); !reflect.DeepEqual(got, [][]int{{1}, {0}}) {
		t.Fatalf("boundary point rows = %v", got)
	}
}

func TestGridIndexEmptyAndSingleton(t *testing.T) {
	g := newIndex(Square(10), nil, 5)
	if got := AppendRows[int32](g, nil, nil, 0, 0); len(got) != 0 {
		t.Fatalf("empty index returned %v", got)
	}
	g = newIndex(Square(10), []Point{{5, 5}}, 5)
	if got := rowsByPoint(g, 1); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("singleton index returned %v", got)
	}
}

func TestGridIndexPanicsOnBadRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero radius")
		}
	}()
	new(GridIndex).Rebuild(Square(10), nil, 0)
}

// BenchmarkGridRows builds every row of a paper-density 10,000-node field.
func BenchmarkGridRows(b *testing.B) {
	const n = 10000
	side := 400 * math.Sqrt(n/400.0)
	points := syntheticField(nil, n, side)
	g := newIndex(Square(side), points, 50)
	deg := make([]int32, n)
	var flat []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat = AppendRows(g, flat[:0], deg, 0, n)
	}
}

// syntheticField fills dst with n deterministic pseudo-random points inside
// a side×side square (no rng dependency: a fixed LCG keeps geom leaf-level).
func syntheticField(dst []Point, n int, side float64) []Point {
	dst = dst[:0]
	state := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, Point{X: next() * side, Y: next() * side})
	}
	return dst
}

func TestRebuildAllocFreeAcrossSizes(t *testing.T) {
	// Satellite pin: once the index has seen its largest deployment, rebuilds
	// at ANY size — including shrink-then-regrow cycles and changed bounds —
	// must not allocate. This is what keeps per-trial repartitioning at
	// N=100k from silently reallocating.
	g := &GridIndex{}
	var pts []Point
	sizes := []struct {
		n    int
		side float64
	}{{100000, 4000}, {400, 290}, {10000, 1300}, {400, 290}, {100000, 4000}}
	// Warm to the maximum footprint.
	for _, s := range sizes {
		pts = syntheticField(pts, s.n, s.side)
		g.Rebuild(Square(s.side), pts, 50)
	}
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		s := sizes[i%len(sizes)]
		i++
		pts = syntheticField(pts, s.n, s.side)
		g.Rebuild(Square(s.side), pts, 50)
	})
	if allocs != 0 {
		t.Fatalf("Rebuild allocated %v per run after warmup, want 0", allocs)
	}
}

func TestRebuildMatchesFreshAfterResize(t *testing.T) {
	// A reused index rebuilt small→large→small must build rows exactly
	// like a fresh one (contents and order), proving leftover storage from
	// other shapes never leaks into results.
	var pts []Point
	reused := &GridIndex{}
	for _, n := range []int{500, 20000, 500, 3000} {
		side := 100 * math.Sqrt(float64(n)/500)
		pts = syntheticField(pts, n, side)
		reused.Rebuild(Square(side), pts, 50)
		fresh := newIndex(Square(side), pts, 50)
		if !reflect.DeepEqual(rowsByPoint(reused, n), rowsByPoint(fresh, n)) {
			t.Fatalf("n=%d: reused index rows differ from a fresh index", n)
		}
	}
}
