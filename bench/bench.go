package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one benchmark run's settings.
type config struct {
	seed    uint64
	seconds float64       // length of the timed loop
	setups  int           // set-up repetitions; setup_s is their median
	workers int           // fig7-sweep harness workers
	shards  int           // scale-10k shard goroutines
	prefix  int           // when > 0, replaces the workload's prefix (short test runs)
	calib   time.Duration // how long each hot call is timed in a traced run
}

// opOut is one operation's simulated outputs and verdict.
type opOut struct {
	bytes             uint64    // simulated radio bytes
	checked, accepted int       // verdicts (rounds, firings or regions) and how many passed |S_b−S_r| ≤ Th
	lat               []float64 // round latencies, simulated seconds
	words             []uint64  // every other simulated output, hashed into sim_digest
	err               error     // layer error or oracle failure
}

// recorder collects one timed loop's operations. Its loop clock runs from
// the start of the loop and stops while the reference task runs.
type recorder struct {
	prefix int
	loop   time.Time // start of the timed loop
	pace   *pacer
	paused int64   // ns spent in the reference task since loop
	ns     []int64 // host time per operation
	end    []int64 // when each operation ended, on the loop clock
	simmed int     // operations whose simulated outputs were recorded
	failed int
	errs   []string // the first failures, for the report

	// Simulated outputs of the first prefix operations.
	bytes             uint64
	checked, accepted int
	lat               []float64
	digest            hash.Hash
	word              [8]byte
}

func newRecorder(prefix int, p *pacer) *recorder {
	return &recorder{prefix: prefix, pace: p, ns: make([]int64, 0, 1<<14), end: make([]int64, 0, 1<<14), digest: sha256.New()}
}

// since reads the loop clock at t.
func (r *recorder) since(t time.Time) int64 {
	return t.Sub(r.loop).Nanoseconds() - r.paused
}

// probe runs the reference task once between operations.
func (r *recorder) probe() {
	at := r.since(time.Now())
	d := r.pace.run()
	r.pace.at = append(r.pace.at, at)
	r.pace.dur = append(r.pace.dur, d)
	r.paused += d
}

type opStart struct {
	t0   time.Time
	span int32
}

// start begins timing operation len(r.ns) and opens its root span.
func (r *recorder) start(tb *spanBuf) opStart {
	tb.setOp(len(r.ns))
	return opStart{span: tb.begin(spanOp), t0: time.Now()}
}

func (r *recorder) stop(tb *spanBuf, s opStart) {
	now := time.Now()
	r.time(now.Sub(s.t0).Nanoseconds(), r.since(now))
	tb.end(s.span)
}

// time records the next operation's host time and when it ended.
func (r *recorder) time(ns, end int64) {
	r.ns = append(r.ns, ns)
	r.end = append(r.end, end)
}

// sim records the next operation's simulated outputs; operations must be
// reported in index order.
func (r *recorder) sim(o *opOut) {
	if o.err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, o.err.Error())
		}
	}
	if r.simmed++; r.simmed > r.prefix {
		return
	}
	r.bytes += o.bytes
	r.checked += o.checked
	r.accepted += o.accepted
	r.lat = append(r.lat, o.lat...)
	r.hash(o.bytes, uint64(o.checked), uint64(o.accepted))
	for _, l := range o.lat {
		r.hash(math.Float64bits(l))
	}
	r.hash(o.words...)
}

func (r *recorder) hash(ws ...uint64) {
	for _, w := range ws {
		binary.LittleEndian.PutUint64(r.word[:], w)
		r.digest.Write(r.word[:])
	}
}

// session is one set-up followed by one timed loop.
type session struct {
	runner   runner
	rec      *recorder
	setupS   []float64
	wall     float64 // seconds in the timed loop, on the loop clock
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
	heapPeak uint64 // bytes; sampled in traced sessions only
}

func runSession(w *workload, c config, tr *tracer) (*session, error) {
	s := &session{}
	pace := newPacer()
	for k := 0; k < c.setups; k++ {
		t := tr
		if k < c.setups-1 {
			t = nil // only the set-up the loop runs on is traced
		}
		runtime.GC()
		scale := pace.scaleNow()
		start := time.Now()
		r, err := w.setup(&c, t)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		s.setupS = append(s.setupS, time.Since(start).Seconds()*scale)
		s.runner = r
	}
	tr.resetWork()
	prefix := w.prefix
	if c.prefix > 0 {
		prefix = c.prefix
	}
	s.rec = newRecorder(prefix, pace)
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	s.rec.loop = start
	s.rec.probe()
	lastProbe, lastSample := time.Now(), start
	for float64(s.rec.since(time.Now()))/1e9 < c.seconds || len(s.rec.ns) < prefix {
		if err := s.runner.next(s.rec); err != nil {
			return nil, err
		}
		if time.Since(lastProbe) >= paceEvery {
			s.rec.probe()
			lastProbe = time.Now()
		}
		if tr != nil && time.Since(lastSample) > 10*time.Millisecond {
			metrics.Read(heap)
			s.heapPeak = max(s.heapPeak, heap[0].Value.Uint64())
			lastSample = time.Now()
		}
	}
	s.runner.flush(s.rec)
	s.rec.probe()
	s.wall = float64(s.rec.since(time.Now())) / 1e9
	runtime.ReadMemStats(&m1)
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return s, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run reports; BENCHMARK.json gives
// each its bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"allocs_per_op", "allocs"},
	{"peak_rss_mb", "MB"},
	{"sim_bytes_per_op", "bytes"},
	{"sim_accept_rate", "fraction"},
}

// result is one workload run's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"sim_digest"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func (s *session) throughput() float64 { return float64(len(s.rec.ns)) / s.wall }

// scaled returns each operation's host time in ms and the pace scale it
// was multiplied by (see pace.go).
func (r *recorder) scaled() (ms, scale []float64) {
	ms, scale = make([]float64, len(r.ns)), make([]float64, len(r.ns))
	for i, x := range r.ns {
		scale[i] = r.pace.scaleAt(r.end[i])
		ms[i] = float64(x) / 1e6 * scale[i]
	}
	return ms, scale
}

// quietShare is the share of the timed loop that throughput_ops_s and
// op_p50_ms are measured over.
const quietShare = 0.1

// quiet returns the scaled host times (ms) of the operations in the
// quietest windows of the loop and the scaled seconds those windows took.
// The loop is cut into windows of k consecutive operations, and the
// quietShare of them that took least scaled time are kept. Besides the
// slow spells the pace scale follows, a shared host slows memory-bound
// code for a second or two at a time; the quiet windows keep those out of
// the run's central figures, while op_tail_ms, over every operation,
// still shows them.
func quiet(rec *recorder, ms, scale []float64, k int) (q []float64, secs float64) {
	n := len(ms)
	type window struct {
		lo   int
		secs float64
	}
	var ws []window
	prev := int64(0)
	for lo := 0; lo+k <= n; lo += k {
		end := slices.Max(rec.end[lo : lo+k])
		ws = append(ws, window{lo, float64(end-prev) / 1e9 * scale[lo+k-1]})
		prev = end
	}
	if len(ws) == 0 {
		return slices.Clone(ms), float64(slices.Max(rec.end)) / 1e9 * scale[n-1]
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].secs < ws[j].secs })
	for _, w := range ws[:max(1, int(math.Round(quietShare*float64(len(ws)))))] {
		q = append(q, ms[w.lo:w.lo+k]...)
		secs += w.secs
	}
	return q, secs
}

// run measures one workload. Without tracing it reports the end-to-end
// metrics. With tracing it runs a third of the time untraced, a third
// traced and a third untraced again, and reports the per-layer metrics of
// the traced third; trace.overhead_pct compares it with the mean of the
// untraced thirds, which cancels a steady drift in the host's speed. Spans
// go to traceOut.
func run(w *workload, c config, trace bool, traceOut string, log io.Writer) (*result, error) {
	res := &result{Workload: w.name, Metrics: map[string]metric{}}
	if !trace {
		s, err := runSession(w, c, nil)
		if err != nil {
			return nil, err
		}
		hwm, err := peakRSS()
		if err != nil {
			return nil, err
		}
		ms, scale := s.rec.scaled()
		quietMs, quietS := quiet(s.rec, ms, scale, w.window)
		ops := float64(len(s.rec.ns))
		v := map[string]float64{
			"setup_s":          quantile(s.setupS, 0.5),
			"throughput_ops_s": float64(len(quietMs)) / quietS,
			"op_p50_ms":        quantile(quietMs, 0.5),
			"op_tail_ms":       quantile(ms, w.tail),
			"allocs_per_op":    float64(s.mallocs) / ops,
			"peak_rss_mb":      hwm,
			"sim_bytes_per_op": float64(s.rec.bytes) / float64(s.rec.prefix),
			"sim_accept_rate":  float64(s.rec.accepted) / float64(max(1, s.rec.checked)),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{v[d.name], d.unit}
		}
		res.fill(s.rec)
		fmt.Fprintf(log, "%s: %d ops in %.2f s after %d set-ups (median %.3f s); sim outputs over the first %d ops\n",
			w.name, len(s.rec.ns), s.wall, len(s.setupS), v["setup_s"], s.rec.prefix)
		return res, nil
	}
	third := c
	third.seconds, third.setups = c.seconds/3, 1
	before, err := runSession(w, third, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	s, err := runSession(w, third, tr)
	if err != nil {
		return nil, err
	}
	after, err := runSession(w, third, nil)
	if err != nil {
		return nil, err
	}
	cal, err := calibrate(c.seed, c.calib)
	if err != nil {
		return nil, err
	}
	st, setup := tr.stats()
	v := perLayer(w, c, s, tr, st, setup, cal)
	untraced := (before.throughput() + after.throughput()) / 2
	v["trace.overhead_pct"] = 100 * (untraced/s.throughput() - 1)
	for _, d := range perLayerDefs {
		res.Metrics[d.name] = metric{v[d.name], d.unit}
	}
	res.fill(s.rec)
	for _, u := range []*session{before, after} {
		res.Attempted += len(u.rec.ns)
		res.Failed += u.rec.failed
		res.Errors = append(res.Errors, u.rec.errs...)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(log, "%s traced: %d ops in %.2f s (untraced: %d ops in %.2f s before, %d in %.2f s after); %d spans dropped\n",
		w.name, len(s.rec.ns), s.wall, len(before.rec.ns), before.wall, len(after.rec.ns), after.wall, tr.dropped())
	printTable(log, st, setup)
	if traceOut != "" {
		if err := tr.write(traceOut, w.name); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(log, "spans written to %s\n", traceOut)
	}
	return res, nil
}

func (res *result) fill(rec *recorder) {
	res.Attempted = len(rec.ns)
	res.Failed = rec.failed
	res.Correct = rec.failed == 0
	res.Errors = rec.errs
	res.Digest = hex.EncodeToString(rec.digest.Sum(nil))
}

// peakRSS returns the process's peak resident set (VmHWM) in MB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
