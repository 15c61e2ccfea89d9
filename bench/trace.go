package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/obs"
)

// spanName identifies the layer call a span wraps. Spans are recorded only
// in this package, around calls into the simulator's public entry points.
type spanName uint8

const (
	spanOp        spanName = iota // one timed operation; always a root
	spanSweep                     // harness.Sweep.Run over one batch of trials
	spanDeploy                    // topology.Random / world.Arena.Deploy
	spanPhase1                    // core.New / world.Arena.Core: radio stack + Phase I
	spanCoreRun                   // core.Instance.Run (RunCount, RunSum)
	spanTag                       // world.Arena.Tag + tag.Instance.RunCount
	spanStreamNew                 // stream.New
	spanStep                      // stream.Pipeline.Step
	spanFinish                    // stream.Pipeline.Finish
	spanPlan                      // shard.NewPlan
	spanRunHier                   // shard.RunHier
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "harness.sweep", "topology.deploy", "tree.phase1", "core.run",
	"tag.trial", "stream.new", "stream.step", "stream.finish", "shard.plan", "shard.runhier",
}

// Indices into counts: simulator work read through the layers' public
// counters (Sim.Fired, Medium.Stats, MAC.Stats, Instance.Rounds).
const (
	cRounds = iota
	cEvents
	cFrames
	cCollided
	cDelivered
	cBytes
	cSent
	cRetries
	cDeferred
	cDropped
	numCounts
)

type counts [numCounts]uint64

// instanceCounts reads a core instance's layer counters.
func instanceCounts(in *core.Instance) counts {
	rs, ms := in.Medium.Stats(), in.MAC.Stats()
	return counts{in.Rounds(), in.Sim.Fired(), rs.FramesSent, rs.FramesCollided, rs.FramesDelivered,
		rs.BytesSent, ms.Sent, ms.Retries, ms.Deferred, ms.Dropped}
}

func (c counts) minus(b counts) counts {
	for i := range c {
		c[i] -= b[i]
	}
	return c
}

// span is one recorded layer call. Times are nanoseconds since the
// tracer's epoch; events, frames and bytes are the simulator work the call
// did, where the call exposes its instance's counters.
type span struct {
	parent                int32 // index in the same buffer, -1 for a root
	op                    int32 // operation index, -1 during set-up
	name                  spanName
	start, end            int64
	events, frames, bytes uint64
}

// spanCap bounds one buffer's spans; the storage is allocated before the
// run so recording never allocates. Spans past it are counted, not kept.
const spanCap = 1 << 16

// spanBuf records the spans of one goroutine. A nil *spanBuf records
// nothing, so untraced runs pass nil through the same code.
type spanBuf struct {
	epoch   time.Time
	spans   []span
	open    []int32 // stack of open spans; -1 marks a dropped one
	dropped int
	op      int32

	// work sums the counts of every round-running span of the timed loop,
	// and fault the per-round churn counts (dead, skipped, repaired).
	work   counts
	fault  [3]uint64
	faultN uint64

	// sink is attached to the buffer's protocol instances; it counts the
	// slices sealed (ipda_core_slices_sent_total) from slices0 on.
	sink    *obs.Sink
	slices0 float64
}

const slicesSent = "ipda_core_slices_sent_total"

func (b *spanBuf) obsSink() *obs.Sink {
	if b == nil {
		return nil
	}
	return b.sink
}

func (b *spanBuf) setOp(i int) {
	if b != nil {
		b.op = int32(i)
	}
}

func (b *spanBuf) begin(n spanName) int32 {
	if b == nil {
		return -1
	}
	idx := int32(-1)
	if len(b.spans) < cap(b.spans) {
		parent := int32(-1)
		if k := len(b.open); k > 0 {
			parent = b.open[k-1]
		}
		idx = int32(len(b.spans))
		b.spans = append(b.spans, span{parent: parent, op: b.op, name: n, start: time.Since(b.epoch).Nanoseconds()})
	} else {
		b.dropped++
	}
	b.open = append(b.open, idx)
	return idx
}

func (b *spanBuf) end(i int32) {
	if b == nil {
		return
	}
	b.open = b.open[:len(b.open)-1]
	if i >= 0 {
		b.spans[i].end = time.Since(b.epoch).Nanoseconds()
	}
}

// endSpan ends span i and stores the work c on it.
func (b *spanBuf) endSpan(i int32, c counts) {
	b.end(i)
	if b != nil && i >= 0 {
		s := &b.spans[i]
		s.events, s.frames, s.bytes = c[cEvents], c[cFrames], c[cBytes]
	}
}

// endRound ends a round-running span whose work delta is d and adds d to
// the buffer's totals.
func (b *spanBuf) endRound(i int32, d counts) {
	b.endSpan(i, d)
	if b != nil {
		for k := range d {
			b.work[k] += d[k]
		}
	}
}

// faults samples one round's churn counts.
func (b *spanBuf) faults(dead, skipped, repaired int) {
	if b != nil {
		b.fault[0] += uint64(dead)
		b.fault[1] += uint64(skipped)
		b.fault[2] += uint64(repaired)
		b.faultN++
	}
}

// tracer owns every span buffer of one traced session.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a fresh buffer for one goroutine (nil on a nil tracer).
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{epoch: t.epoch, spans: make([]span, 0, spanCap), open: make([]int32, 0, 16), op: -1,
		sink: &obs.Sink{Reg: obs.NewRegistry()}}
	t.bufs = append(t.bufs, b)
	return b
}

// resetWork clears the round totals after set-up, so they cover the timed
// loop only.
func (t *tracer) resetWork() {
	if t == nil {
		return
	}
	for _, b := range t.bufs {
		b.work, b.fault, b.faultN = counts{}, [3]uint64{}, 0
		b.slices0 = b.sink.Reg.Counter(slicesSent, "").Value()
	}
}

// work sums the buffers' timed-loop totals; slices is the Phase II slices
// sealed.
func (t *tracer) work() (w counts, fault [3]uint64, faultN uint64, slices float64) {
	for _, b := range t.bufs {
		slices += b.sink.Reg.Counter(slicesSent, "").Value() - b.slices0
		for k := range w {
			w[k] += b.work[k]
		}
		for k := range fault {
			fault[k] += b.fault[k]
		}
		faultN += b.faultN
	}
	return w, fault, faultN, slices
}

func (t *tracer) dropped() int {
	n := 0
	for _, b := range t.bufs {
		n += b.dropped
	}
	return n
}

// spanStat summarizes every span of one name.
type spanStat struct {
	durs           []float64 // ms
	total, self    float64   // ms
	events, frames uint64
}

// stats folds the recorded spans by name, those of the timed loop apart
// from those of set-up. A span's self time is its duration minus that of
// its direct children.
func (t *tracer) stats() (loop, setup [numSpanNames]*spanStat) {
	for i := range loop {
		loop[i], setup[i] = &spanStat{}, &spanStat{}
	}
	for _, b := range t.bufs {
		child := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			st := loop[s.name]
			if s.op < 0 {
				st = setup[s.name]
			}
			d := s.end - s.start
			st.durs = append(st.durs, float64(d)/1e6)
			st.total += float64(d) / 1e6
			st.self += float64(d-child[i]) / 1e6
			st.events += s.events
			st.frames += s.frames
		}
	}
	return loop, setup
}

// printTable writes the per-layer table: calls, total and self host time,
// and each layer's share of the time spent inside operations.
func printTable(w io.Writer, loop, setup [numSpanNames]*spanStat) {
	opTotal := loop[spanOp].total
	fmt.Fprintf(w, "%-24s %8s %12s %12s %8s\n", "span", "calls", "total_ms", "self_ms", "share")
	for _, part := range []struct {
		suffix string
		st     [numSpanNames]*spanStat
	}{{"", loop}, {" (set-up)", setup}} {
		for n, s := range part.st {
			if len(s.durs) == 0 {
				continue
			}
			share := ""
			if part.suffix == "" && opTotal > 0 {
				share = fmt.Sprintf("%7.1f%%", 100*s.total/opTotal)
			}
			fmt.Fprintf(w, "%-24s %8d %12.1f %12.1f %8s\n", spanNames[n]+part.suffix, len(s.durs), s.total, s.self, share)
		}
	}
}

type spanJSON struct {
	ID       string `json:"id"`
	Parent   string `json:"parent,omitempty"`
	Workload string `json:"workload"`
	Op       int32  `json:"op"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Events   uint64 `json:"events,omitempty"`
	Frames   uint64 `json:"frames,omitempty"`
	Bytes    uint64 `json:"bytes,omitempty"`
}

// write exports every span as one JSON line. Span ids are "buffer.index",
// so a parent always names a span of the same buffer.
func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for bi, b := range t.bufs {
		for i, s := range b.spans {
			j := spanJSON{ID: fmt.Sprintf("%d.%d", bi, i), Workload: workload, Op: s.op,
				Name: spanNames[s.name], StartNs: s.start, EndNs: s.end,
				Events: s.events, Frames: s.frames, Bytes: s.bytes}
			if s.parent >= 0 {
				j.Parent = fmt.Sprintf("%d.%d", bi, s.parent)
			}
			if err := enc.Encode(j); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the nearest-rank q-quantile of xs (0 for none); it
// sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}
