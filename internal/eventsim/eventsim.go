// Package eventsim is a deterministic discrete-event simulation kernel —
// the substitute for the ns-2 scheduler the paper's evaluation runs on.
//
// Events are callbacks ordered by (time, sequence number); ties in time are
// broken by scheduling order, so a run is a pure function of the initial
// schedule and the random streams the callbacks consume. The kernel is
// single-threaded by design: reproducibility matters more than parallelism
// inside one simulated network, and parallelism comes from outside it —
// the experiment harness runs independent trials, and the shard package
// independent regions, each on its own kernel.
//
// A scheduled event cannot be cancelled: every protocol phase drains the
// events it schedules before it returns, so nothing ever needs to be
// taken back. Each queued entry therefore carries its own callback next
// to its ordering key, and scheduling, popping and firing touch nothing
// but the lane that holds it. Entries carry a pointer, so moving one
// within a lane takes a GC write barrier while a collection is running;
// that measured faster than the slab of index-addressed event slots it
// replaced, whose generation checks cost a random slab read per lane
// head on every step. The kernel is allocation-free in steady state: the
// lanes keep their capacity, and a popped or discarded slot is cleared so
// a long-lived kernel pins no spent closure.
//
// The queue keeps two lanes, both popped in (time, sequence) order. The
// pre-planned lane holds events scheduled while no callback is running (a
// round's up-front sends, queued before Run): At appends to a slice, an
// out-of-order append marks it unsorted, the next front read radix-sorts
// the unfired part once, and a cursor pops it. The reactive lane holds
// events scheduled by a firing callback (the traffic of frames in flight)
// in a 4-ary heap that stays as small as the number of frames in flight.
// The next event is the earlier of the two heads, so the firing order is
// the single total order above. The lane follows from whether a callback
// is being dispatched; there is nothing to configure.
package eventsim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time float64

// entry is one scheduled event: the ordering key and the callback.
type entry struct {
	at  Time
	seq uint64
	fn  func()
}

// before reports whether a fires before b: earlier time first,
// scheduling order breaking ties.
func before(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The reactive lane is a 4-ary min-heap over (at, seq) implemented
// concretely rather than through container/heap: the comparator is a
// strict total order, so pop order — the only thing determinism depends
// on — is independent of heap layout. Entries are held by value, so
// comparisons and sift moves never leave the heap's backing array, and
// the 4-ary shape halves the depth a pop sifts through. Sifts move a hole
// instead of swapping, so each level costs one entry copy.
type eventHeap []entry

// push inserts e and restores the heap property.
func (h *eventHeap) push(e entry) {
	*h = append(*h, entry{})
	h.siftUp(e, int32(len(*h))-1)
}

// pop removes the earliest entry, clearing the slot it vacates. The heap
// must be non-empty.
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	last := q[n]
	q[n] = entry{}
	*h = q[:n]
	if n > 0 {
		h.siftDown(last, 0)
	}
}

// siftUp places e into the hole at position i, shifting later-firing
// parents down until the heap property holds.
func (h eventHeap) siftUp(e entry, i int32) {
	for i > 0 {
		p := (i - 1) / 4
		if !before(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// siftDown places e into the hole at position i, shifting the
// earliest-firing child up until the heap property holds.
func (h eventHeap) siftDown(e entry, i int32) {
	n := int32(len(h))
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if before(&h[j], &h[m]) {
				m = j
			}
		}
		if !before(&h[m], &e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// Sim is the simulation kernel. The zero value is ready to use.
type Sim struct {
	now      Time
	seq      uint64
	sched    []entry   // pre-planned lane: entries scheduled outside any callback
	head     int       // cursor: sched[:head] has fired
	unsorted bool      // sched[head:] may be out of (time, seq) order
	scratch  []entry   // radix sort buffer, as long as sched's capacity
	queue    eventHeap // reactive lane: entries scheduled by a firing callback
	fired    uint64
	running  bool // Run is dispatching, so At is called by a callback
}

// New returns a fresh simulation at time zero.
func New() *Sim { return &Sim{} }

// Reset rewinds the kernel to time zero for a fresh run while keeping its
// backing storage: still-scheduled events in either lane are dropped
// unfired, and both lanes and the sort buffer keep their capacity. A
// Reset sim is indistinguishable from a New one — the clock, sequence
// counter, and fired count all restart — so a run on a reused kernel is
// byte-identical to a run on a fresh one.
func (s *Sim) Reset() {
	clear(s.sched)
	clear(s.queue)
	s.sched, s.head, s.unsorted = s.sched[:0], 0, false
	s.queue = s.queue[:0]
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.running = false
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the number of events still scheduled.
func (s *Sim) Pending() int { return len(s.sched) - s.head + len(s.queue) }

// sortSched puts the unfired part of the pre-planned lane in (time, seq)
// order with a stable LSD radix sort on the bits of at. Every scheduled
// time is +0 or positive (At rejects times before now, which never goes
// negative, and normalises -0), and the IEEE 754 bit patterns of such
// floats order like the floats themselves, +Inf included. The entries
// were appended in seq order and the sorted prefix of a partly drained
// lane already holds equal times in seq order, so stability alone breaks
// ties by seq. A byte pass is skipped when every key shares that byte —
// a round's times share their sign and exponent bits — and the passes
// ping-pong between the lane and the scratch buffer, swapping the two
// when the result lands in scratch. The buffer the result did not land
// in is cleared, so its copies of the callbacks pin nothing.
func (s *Sim) sortSched() {
	s.unsorted = false
	src := s.sched[s.head:]
	n := len(src)
	dst := s.scratch[:n] // makeRoom keeps cap(scratch) == cap(sched)
	var counts [8][256]int32
	for i := range src {
		k := math.Float64bits(float64(src[i].at))
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	passes := 0
	for b := range counts {
		c := &counts[b]
		if c[byte(math.Float64bits(float64(src[0].at))>>(8*b))] == int32(n) {
			continue // every key shares this byte: the pass would not move anything
		}
		var off [256]int32
		var sum int32
		for d, k := range c {
			off[d] = sum
			sum += k
		}
		for i := range src {
			d := byte(math.Float64bits(float64(src[i].at)) >> (8 * b))
			dst[off[d]] = src[i]
			off[d]++
		}
		src, dst = dst, src
		passes++
	}
	if passes == 0 {
		return
	}
	clear(dst)
	if passes%2 == 1 {
		s.sched, s.scratch, s.head = src, s.sched[:0], 0
	}
}

// makeRoom frees space at the end of the full pre-planned lane. A lane at
// least half spent slides its unfired part down and clears the slots the
// slide vacates, so a lane that never drains completely stays within
// twice its pending length. Otherwise the lane and the sort buffer double
// together, carved out of one allocation so the buffer never costs an
// allocation of its own.
func (s *Sim) makeRoom() {
	live := s.sched[s.head:]
	if s.head > 0 && 2*len(live) <= cap(s.sched) {
		n := copy(s.sched, live)
		clear(s.sched[n:])
		s.sched, s.head = s.sched[:n], 0
		return
	}
	c := max(2*cap(s.sched), 64)
	buf := make([]entry, 2*c)
	s.sched, s.scratch, s.head = append(buf[:0:c], live...), buf[c:c], 0
}

// front returns the entry that fires next, nil when nothing is scheduled,
// and whether it heads the pre-planned lane. Every
// front-of-queue read funnels through here, so it sorts the pre-planned
// lane when an out-of-order At left it unsorted and truncates it to empty
// once the cursor has passed its end. On a tie in time the lower seq
// wins, so the two lanes fire in the single (time, seq) order.
func (s *Sim) front() (e *entry, pre bool) {
	if s.unsorted {
		s.sortSched()
	}
	if s.head < len(s.sched) {
		e, pre = &s.sched[s.head], true
	} else if s.head > 0 {
		s.sched, s.head = s.sched[:0], 0
	}
	if len(s.queue) > 0 && (e == nil || before(&s.queue[0], e)) {
		e, pre = &s.queue[0], false
	}
	return e, pre
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a protocol bug, never a recoverable condition. A time of -0
// is scheduled as +0, the time it compares equal to.
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, s.now))
	}
	if math.IsNaN(float64(t)) {
		panic("eventsim: scheduling at NaN time")
	}
	if t == 0 {
		t = 0 // -0 becomes +0: the pre-planned lane sorts on the float's bits
	}
	e := entry{at: t, seq: s.seq, fn: fn}
	s.seq++
	if s.running {
		s.queue.push(e)
		return
	}
	n := len(s.sched)
	if n > s.head && t < s.sched[n-1].at {
		s.unsorted = true
	}
	if n == cap(s.sched) {
		s.makeRoom()
	}
	s.sched = append(s.sched, e)
}

// After schedules fn to run d seconds from now.
func (s *Sim) After(d Time, fn func()) {
	s.At(s.now+d, fn)
}

// Run executes events in order until the queue drains or the simulated
// time would exceed deadline (events beyond the deadline stay unexecuted).
// It returns the number of events fired by this call.
func (s *Sim) Run(deadline Time) uint64 {
	start := s.fired
	running := s.running
	s.running = true // only callbacks run until the loop ends
	for {
		e, pre := s.front()
		if e == nil || e.at > deadline {
			break
		}
		at, fn := e.at, e.fn
		if pre {
			*e = entry{} // the spent slot must not pin fn
			s.head++
		} else {
			s.queue.pop()
		}
		s.now = at
		s.fired++
		fn()
	}
	s.running = running
	if s.now < deadline && s.Pending() == 0 && !math.IsInf(float64(deadline), 1) {
		// Advance the clock to the deadline so successive Run calls see
		// monotonic time even over idle periods.
		s.now = deadline
	}
	return s.fired - start
}

// RunAll executes events until the queue drains, with no time limit. It
// returns the number of events fired by this call.
func (s *Sim) RunAll() uint64 {
	return s.Run(Time(math.Inf(1)))
}
