package topology

import (
	"runtime"
	"sync"

	"github.com/ipda-sim/ipda/internal/geom"
)

// adjParallelFloor is the number of nodes each goroutine of an adjacency
// build must have to itself: a deployment of n nodes splits its rows across
// min(GOMAXPROCS, n/adjParallelFloor) goroutines. On a 2-CPU x86-64 host
// (BenchmarkPoolRandom), two goroutines build a 600-node field about 10%
// slower than one and a 1,000-node field about 8% faster; at 10,000 nodes
// they take 1.9 ms against 2.9 ms. The floor keeps everything below 2,048
// nodes — the paper's N ≤ 600 fields, which sweep workers build
// concurrently, among them — on one goroutine.
const adjParallelFloor = 1024

// adjacency builds the neighbour lists of a deployment in CSR form — rows
// back to back in one flat array per part, each node's row a slice of its
// part's array — and keeps its storage for the next build, so a long-lived
// builder reaches a zero-allocation steady state. Rows are computed and
// stored in the grid's cell order, where the candidates of a node sit in
// three contiguous spans and the rows of nearby nodes sit near each other;
// each row lists its neighbours by cell row offset, cell column offset and
// node ID.
type adjacency struct {
	grid  geom.GridIndex
	deg   []int32 // row length per cell-order position
	adj   [][]NodeID
	parts []adjPart
	wg    sync.WaitGroup

	// perNode is the largest mean degree of any build so far: each part
	// reserves a quarter's headroom over its share at that density, so
	// the rows of same-sized deployments, whose edge counts vary by a
	// fraction of a percent, settle without regrowth.
	perNode float64
}

// adjPart is one goroutine's share of a build: a range of cell-order
// positions and the rows computed for them, which the part also slices
// into adj.
type adjPart struct {
	a      *adjacency
	k0, k1 int
	rows   []NodeID // rows of positions k0..k1-1, back to back
}

// build returns the neighbour lists of positions, linking every pair within
// radius. The rows alias the builder's storage: they are valid until its
// next build.
func (a *adjacency) build(positions []geom.Point, bounds geom.Rect, radius float64) [][]NodeID {
	w := max(min(runtime.GOMAXPROCS(0), len(positions)/adjParallelFloor), 1)
	return a.buildParts(positions, bounds, radius, w)
}

// buildParts is build split across w goroutines. The rows do not depend on
// w.
func (a *adjacency) buildParts(positions []geom.Point, bounds geom.Rect, radius float64, w int) [][]NodeID {
	n := len(positions)
	a.grid.Rebuild(bounds, positions, radius)
	a.deg = grow(a.deg, n)
	a.adj = grow(a.adj, n)
	if cap(a.parts) < w {
		a.parts = make([]adjPart, w)
	}
	a.parts = a.parts[:w]
	for i := range a.parts {
		p := &a.parts[i]
		p.a, p.k0, p.k1 = a, n*i/w, n*(i+1)/w
		if want := int(1.25 * a.perNode * float64(p.k1-p.k0)); cap(p.rows) < want {
			p.rows = make([]NodeID, 0, want)
		}
	}
	a.runParts()
	entries := 0
	for _, p := range a.parts {
		entries += len(p.rows)
	}
	a.perNode = max(a.perNode, float64(entries)/float64(n))
	return a.adj
}

// grow returns s resized to n, reallocating only when its capacity is
// exceeded.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// runParts runs every part, part 0 on the calling goroutine and the others
// on adjWorker goroutines.
func (a *adjacency) runParts() {
	startAdjWorkers(len(a.parts) - 1)
	a.wg.Add(len(a.parts) - 1)
	for i := 1; i < len(a.parts); i++ {
		adjJobs <- &a.parts[i]
	}
	a.parts[0].run()
	a.wg.Wait()
}

// adjJobs feeds parts to the adjWorker goroutines. The workers live for the
// rest of the process, idle on the channel between builds: starting a
// goroutine per part would allocate whenever the runtime has no finished
// goroutine to reuse, and pooled builds must not allocate. A worker may
// serve any build — parts carry their own builder — so concurrent builds
// share the workers.
var (
	adjJobs    = make(chan *adjPart)
	adjMu      sync.Mutex
	adjWorkers int // workers started so far
)

// startAdjWorkers makes sure at least n workers are running.
func startAdjWorkers(n int) {
	adjMu.Lock()
	for ; adjWorkers < n; adjWorkers++ {
		go adjWorker()
	}
	adjMu.Unlock()
}

func adjWorker() {
	for p := range adjJobs {
		p.run()
		p.a.wg.Done()
	}
}

// run computes the part's rows, then slices each node's row out of them:
// the row array has stopped growing, so no row can be left pointing at an
// abandoned backing array.
func (p *adjPart) run() {
	a := p.a
	p.rows = geom.AppendRows(&a.grid, p.rows[:0], a.deg[p.k0:p.k1], p.k0, p.k1)
	order := a.grid.Order()
	off := 0
	for k := p.k0; k < p.k1; k++ {
		end := off + int(a.deg[k])
		a.adj[order[k]] = p.rows[off:end:end]
		off = end
	}
}
