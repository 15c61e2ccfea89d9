package harness

import "github.com/ipda-sim/ipda/internal/stats"

// Acc accumulates one scalar metric over a sweep's (point × trial) grid.
//
// Each grid cell owns a private streaming accumulator (count / mean /
// variance via Welford, max — stats.Sample), so trials record
// observations without allocating trial-indexed result slices or taking a
// lock. Point folds a point's cells in trial order, which makes every
// summary independent of trial completion order — the keystone of the
// harness's Workers=1 ≡ Workers=N guarantee.
//
// Add may only be called from the trial that owns t (distinct trials
// touch distinct cells, so the grid needs no synchronization); Point must
// only be called after Run returns.
type Acc struct {
	trials int
	cells  []stats.Sample
}

// NewAcc returns an accumulator sized for s's grid.
func NewAcc(s Sweep) *Acc {
	return &Acc{trials: s.Trials, cells: make([]stats.Sample, s.Points*s.Trials)}
}

// Add records one observation for t's grid cell. A trial may Add any
// number of observations, including none (a skipped trial simply leaves
// its cell empty and does not count toward the point's N).
func (a *Acc) Add(t *T, v float64) {
	a.cells[t.Point*a.trials+t.Trial].Add(v)
}

// AddBool records a 0/1 observation, so a point's Mean is the rate of
// true among recorded trials.
func (a *Acc) AddBool(t *T, b bool) {
	v := 0.0
	if b {
		v = 1
	}
	a.Add(t, v)
}

// Point returns the summary over one point's trials, folded in trial
// order.
func (a *Acc) Point(point int) *stats.Sample {
	var s stats.Sample
	for trial := 0; trial < a.trials; trial++ {
		s.Merge(&a.cells[point*a.trials+trial])
	}
	return &s
}
