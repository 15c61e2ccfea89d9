package main

import (
	"slices"
	"sort"
	"time"
)

// Host pace. On a shared host other tenants' load slows the simulator for
// minutes at a time: on the 2-CPU machine of baseline.json, steady-rounds'
// median operation went from 2.6 to 5.5 ms over half an hour. That is
// longer than a run, so no statistic taken inside one run removes it.
// Every session therefore also times a fixed reference task — before each
// set-up, and between operations about every paceEvery — and the
// end-to-end timings are scaled by paceNominal over the reference's time
// around them: they read as times on a host that runs the reference in
// paceNominal. Probe time is left out of every measured interval.
//
// The reference sorts a fixed pseudo-random slice of 16 Ki integers:
// branchy code on a cache-resident working set, like the simulator's inner
// loops. Of the tasks tried — an ALU-bound xorshift chain, pointer chases
// over 256 KiB and 16 MiB, map inserts and lookups, and the sort — the
// sort tracked the simulator best across runs on a busy host (correlation
// 0.96 with steady-rounds' median operation, against 0.87 for the chain),
// and scaling by it halved the ten-run spread of the timings.

const (
	paceEvery   = 100 * time.Millisecond
	paceNominal = 1.2e6 // ns: the reference on an idle host of baseline.json
	paceSpan    = 3     // probes on each side of an operation that set its scale
	paceLen     = 16 << 10
)

// pacer runs the reference task and keeps the loop's probes.
type pacer struct {
	src, buf []uint32
	at, dur  []int64 // each probe's start on the loop clock, and its time (ns)
}

func newPacer() *pacer {
	p := &pacer{src: make([]uint32, paceLen), buf: make([]uint32, paceLen)}
	x := uint32(2463534242)
	for i := range p.src {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p.src[i] = x
	}
	return p
}

// run times the reference task once, in nanoseconds.
func (p *pacer) run() int64 {
	t := time.Now()
	copy(p.buf, p.src)
	slices.Sort(p.buf)
	return time.Since(t).Nanoseconds()
}

// scaleNow is the scale for an interval about to be timed: paceNominal
// over the median of three runs of the reference.
func (p *pacer) scaleNow() float64 {
	d := []int64{p.run(), p.run(), p.run()}
	slices.Sort(d)
	return paceNominal / float64(d[1])
}

// scaleAt is the scale for an operation that ended at t on the loop clock:
// paceNominal over the median time of the paceSpan probes on each side.
func (p *pacer) scaleAt(t int64) float64 {
	j := sort.Search(len(p.at), func(i int) bool { return p.at[i] >= t })
	var buf [2 * paceSpan]int64
	near := buf[:copy(buf[:], p.dur[max(0, j-paceSpan):min(len(p.dur), j+paceSpan)])]
	slices.Sort(near)
	return paceNominal / float64(near[len(near)/2])
}
