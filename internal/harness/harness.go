// Package harness is the generic sweep engine behind every experiment:
// a deterministic, parallel runner for (point × trial) grids.
//
// An experiment declares its sweep — an axis of points, a number of
// independent trials per point — and a per-trial function. The engine
// flattens the full grid into one global work queue over a single worker
// pool, so wall-clock scales with the total number of trials rather than
// with the slowest point's trials (a sweep of many points × few trials
// keeps every worker busy instead of draining one point at a time).
//
// Determinism is the contract: every trial draws from a private stream
// derived along the hierarchical seed path
//
//	root seed → experiment ID → point index → trial index
//
// via rng.SplitPath, so the output of a sweep is a pure function of
// (Sweep, trial func) — identical at Workers=1 and Workers=N, and immune
// to the label collisions ad-hoc seed arithmetic invites. Results are
// collected through Acc accumulators (acc.go), which fold per-trial
// observations in trial order regardless of completion order.
//
// Errors are first-class: the first failing trial cancels the sweep
// (queued trials are dropped, running ones finish) and Run returns the
// error annotated with its grid cell.
// Panics inside a trial are recovered into errors, so a worker never
// takes the whole process down with a cross-goroutine panic.
package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/qtrace"
	"github.com/ipda-sim/ipda/internal/rng"
)

// LatencyBuckets is the exponential bucket layout of the harness'
// per-query completion-latency histogram: simulated round latencies live
// in the single-digit-seconds band, with a heavy tail under contention.
var LatencyBuckets = obs.ExpBuckets(0.25, 1.4, 24)

// Sweep declares one experiment's (point × trial) grid.
type Sweep struct {
	// ID names the experiment in the seed path; distinct IDs give
	// disjoint stream families for the same root seed.
	ID string
	// Seed is the root of the stream hierarchy; equal seeds give equal
	// results.
	Seed uint64
	// Points is the number of sweep points (axis values).
	Points int
	// Trials is the number of independent trials per point.
	Trials int
	// Workers bounds parallelism over the flattened grid; 0 selects
	// GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called after every completed trial
	// with the number of trials finished so far and the grid total.
	// Calls are serialized but arrive in completion order.
	Progress func(done, total int)
	// Obs, when non-nil, receives per-point completed-trial counters
	// while the sweep runs (updates serialized under the sweep's own
	// lock) and, once the sweep finishes, wall-clock elapsed and
	// trials/sec gauges. Wall-clock never reaches experiment tables, so
	// the determinism contract is unaffected.
	Obs *obs.Sink
	// WorkerState, when non-nil, is called once per worker goroutine
	// before it takes its first trial; the returned value is handed to
	// every trial that worker runs via T.State. It is the hook for
	// per-worker arenas (reusable simulation worlds): state lives as long
	// as the worker, is never shared between workers, and must not affect
	// trial results — a trial must be a pure function of (Point, Trial,
	// Rng) whether State is fresh or has served a thousand prior trials,
	// which is what keeps Workers=1 and Workers=N byte-identical.
	WorkerState func() any
	// QTrace, when non-nil, collects causal query traces: every trial
	// gets its own span bundle, keyed by (ID, point, trial), exposed to
	// the trial function as T.QTrace. Because bundles are keyed — never
	// shared — and the store's export sorts by key, the exported trace is
	// byte-identical for every Workers value.
	QTrace *qtrace.Store
}

// T is the execution context handed to one trial.
type T struct {
	// Point and Trial locate this trial on the sweep grid.
	Point int
	Trial int
	// Rng is the trial's private random stream, derived from the sweep
	// seed path; no other trial shares it.
	Rng *rng.Stream
	// State is this worker's long-lived state from Sweep.WorkerState
	// (nil when the sweep has none). Trials on the same worker see the
	// same value; trials on different workers never share one.
	State any
	// QTrace is this trial's span bundle from Sweep.QTrace (nil when the
	// sweep collects no traces; its Tracer method is nil-safe, so trial
	// functions wire config tracers unconditionally).
	QTrace *qtrace.TrialTraces

	latencies []float64
}

// RecordLatency buffers one completed query's end-to-end latency in
// simulated seconds. Buffered values are folded into the sweep's
// latency histogram under the completion lock — histogram adds commute,
// so the final distribution is independent of worker count.
func (t *T) RecordLatency(seconds float64) {
	t.latencies = append(t.latencies, seconds)
}

func (s Sweep) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes trial for every cell of the grid and waits for completion.
// Trials run concurrently across the whole grid; the first error (lowest
// grid index among those observed) cancels the remainder and is returned.
func (s Sweep) Run(trial func(t *T) error) error {
	total := s.Points * s.Trials
	if total <= 0 {
		return nil
	}
	workers := s.workers()
	if workers > total {
		workers = total
	}
	root := rng.New(s.Seed).SplitString(s.ID)

	// Resolve per-point instrument handles before the workers start; the
	// registry is not thread-safe, so workers only touch the dense
	// handles (and only under mu).
	var trialCounters []obs.Counter
	var latencyHist obs.Histogram
	var startWall time.Time
	observing := s.Obs != nil && s.Obs.Reg != nil
	if observing {
		trialCounters = make([]obs.Counter, s.Points)
		sweepLabel := obs.Label{Name: "sweep", Value: s.ID}
		for p := 0; p < s.Points; p++ {
			trialCounters[p] = s.Obs.Reg.Counter("ipda_harness_trials_total",
				"completed trials per sweep point",
				sweepLabel, obs.Label{Name: "point", Value: strconv.Itoa(p)})
		}
		latencyHist = s.Obs.Reg.Histogram("ipda_harness_query_latency_seconds",
			"per-query completion latency (simulated seconds)",
			LatencyBuckets, sweepLabel)
		startWall = time.Now()
	}

	var (
		mu        sync.Mutex
		cancelled atomic.Bool
		done      int
		failIdx   int
		failErr   error
		wg        sync.WaitGroup
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var state any
			if s.WorkerState != nil {
				state = s.WorkerState()
			}
			for idx := range next {
				if cancelled.Load() {
					continue // cancelled: drain the queue
				}
				point, tr := idx/s.Trials, idx%s.Trials
				tt := &T{
					Point:  point,
					Trial:  tr,
					Rng:    root.SplitPath(uint64(point)+1, uint64(tr)+1),
					State:  state,
					QTrace: s.QTrace.Trial(s.ID, point, tr),
				}
				err := runTrial(trial, tt)
				mu.Lock()
				if err != nil {
					if failErr == nil || idx < failIdx {
						failIdx = idx
						failErr = fmt.Errorf("harness: %s point %d trial %d: %w", s.ID, point, tr, err)
					}
					mu.Unlock()
					cancelled.Store(true)
					continue
				}
				done++
				if trialCounters != nil {
					trialCounters[point].Inc()
				}
				if observing {
					// Histogram folds commute, so the distribution is the
					// same at every worker count even though trials complete
					// in nondeterministic order.
					for _, v := range tt.latencies {
						latencyHist.Observe(v)
					}
				}
				if s.Progress != nil {
					s.Progress(done, total)
				}
				mu.Unlock()
			}
		}()
	}
	for idx := 0; idx < total; idx++ {
		next <- idx
	}
	close(next)
	wg.Wait()
	if observing {
		sweepLabel := obs.Label{Name: "sweep", Value: s.ID}
		elapsed := time.Since(startWall).Seconds()
		s.Obs.Reg.Gauge("ipda_harness_sweep_elapsed_seconds",
			"wall-clock duration of the sweep", sweepLabel).Set(elapsed)
		if elapsed > 0 {
			s.Obs.Reg.Gauge("ipda_harness_sweep_trials_per_second",
				"completed-trial throughput of the sweep", sweepLabel).Set(float64(done) / elapsed)
		}
	}
	return failErr
}

// runTrial invokes trial, converting a panic into an error so one bad
// trial cancels the sweep instead of killing the process from a worker
// goroutine.
func runTrial(trial func(t *T) error, t *T) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("trial panicked: %v\n%s", p, debug.Stack())
		}
	}()
	return trial(t)
}
