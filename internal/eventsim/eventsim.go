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
// The kernel is allocation-free in steady state: event slots are recycled
// through a free list as soon as they fire or are cancelled. Cancellation
// is lazy — eager removal from a heap would require every sift to write
// the entry's position back into its event slot, and those scattered
// writes dominate the sift's cost — so Cancel just bumps the slot's
// generation (reclaiming the slot immediately) and the dead entry is
// skipped when it reaches the front of its lane. Handles carry the same
// generation so a handle to a recycled event can never touch its
// successor.
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

// Event is a scheduled callback. Events live in the Sim's slab and are
// addressed by index everywhere — lane entries, handles, the free list —
// so the scheduler's data structures carry no pointers: the slab may
// grow without invalidating references, sift and sort moves need no GC
// write barriers, and the queue never needs scanning. gen distinguishes
// lifecycles: a lane entry or Handle whose gen no longer matches the
// slot's is dead, so stale Handles become no-ops and cancelled entries
// are skipped at pop time rather than acting on the next occupant of a
// recycled slot. The ordering key (time, sequence) lives in the lane
// entry, not here.
type event struct {
	fn  func()
	gen uint32 // bumped when the event completes (fires or is cancelled)
}

// Handle allows a scheduled event to be cancelled before it fires. Methods
// have pointer receivers: Cancel records its outcome in the handle itself,
// so Cancelled reports what happened through this handle (a copy made
// before Cancel does not observe it).
type Handle struct {
	s         *Sim
	ei        int32
	gen       uint32
	done      bool // Cancel already ran through this handle
	cancelled bool
}

// Cancel prevents the event from firing. The event's slot is reclaimed
// immediately; its lane entry stays behind as a tombstone and is dropped
// when it surfaces. Cancelling an already-fired or already-cancelled
// event is a no-op: an event that has run cannot be un-run.
func (h *Handle) Cancel() {
	if h.done || h.s == nil {
		return
	}
	h.done = true
	if h.s.events[h.ei].gen != h.gen {
		return // already fired or cancelled (possibly recycled since)
	}
	h.s.recycle(h.ei)
	h.s.live--
	h.cancelled = true
}

// Cancelled reports whether this handle's Cancel call actually cancelled
// the event. It stays false when the event had already fired by the time
// Cancel was called.
func (h *Handle) Cancelled() bool { return h.cancelled }

// entry is one scheduled slot: the ordering key, the slab index of the
// event it belongs to, and the lifecycle it was scheduled in. An entry
// whose gen trails the slot's current gen is a tombstone left by Cancel.
type entry struct {
	at  Time
	seq uint64
	gen uint32
	ei  int32
}

// before reports whether a fires before b: earlier time first,
// scheduling order breaking ties.
func before(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The reactive lane is a 4-ary min-heap over (at, seq) implemented
// concretely rather than through container/heap: the comparator is a
// strict total order, so pop order — the only thing determinism depends
// on — is independent of heap layout. Entries carry the ordering key by
// value, so comparisons and sift moves never leave the heap's backing
// array, and the 4-ary shape halves the depth a pop sifts through. Sifts
// move a hole instead of swapping, so each level costs one entry copy.
type eventHeap []entry

// push inserts e and restores the heap property.
func (h *eventHeap) push(e entry) {
	*h = append(*h, entry{})
	h.siftUp(e, int32(len(*h))-1)
}

// pop removes and returns the earliest entry, which may be a tombstone.
// The heap must be non-empty.
func (h *eventHeap) pop() entry {
	q := *h
	min := q[0]
	n := len(q) - 1
	last := q[n]
	*h = q[:n]
	if n > 0 {
		h.siftDown(last, 0)
	}
	return min
}

// siftUp places e into the hole at position i, shifting later-firing
// parents down until the heap property holds.
func (h eventHeap) siftUp(e entry, i int32) {
	for i > 0 {
		p := (i - 1) / 4
		if !before(e, h[p]) {
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
			if before(h[j], h[m]) {
				m = j
			}
		}
		if !before(h[m], e) {
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
	head     int       // cursor: sched[:head] has fired or been skipped
	unsorted bool      // sched[head:] may be out of (time, seq) order
	scratch  []entry   // radix sort buffer, as long as sched's capacity
	queue    eventHeap // reactive lane: entries scheduled by a firing callback
	events   []event   // slab of event slots, addressed by index
	free     []int32   // recycled slab indices
	live     int       // scheduled events that are not tombstones
	fired    uint64
	halted   bool
	running  bool // a callback is being dispatched
}

// New returns a fresh simulation at time zero.
func New() *Sim { return &Sim{} }

// NewWithCap returns a fresh simulation with capacity for n simultaneously
// scheduled events preallocated (slots in both lanes, the sort buffer and
// pooled event structs), so a run that never exceeds n pending events
// performs no event allocation at all.
func NewWithCap(n int) *Sim {
	if n < 0 {
		n = 0
	}
	buf := make([]entry, 2*n)
	s := &Sim{
		sched:   buf[:0:n],
		scratch: buf[n:n],
		queue:   make(eventHeap, 0, n),
		events:  make([]event, 0, n),
		free:    make([]int32, 0, n),
	}
	return s
}

// Reset rewinds the kernel to time zero for a fresh run while keeping its
// backing storage: any still-scheduled events in either lane are recycled
// into the free list (their handles are invalidated by the gen bump),
// tombstones are dropped, and both lanes and the sort buffer keep their
// capacity. A Reset sim is indistinguishable from a New one — the clock,
// sequence counter, and fired count all restart — so a run on a reused
// kernel is byte-identical to a run on a fresh one.
func (s *Sim) Reset() {
	for _, lane := range [2][]entry{s.sched[s.head:], s.queue} {
		for _, e := range lane {
			if s.events[e.ei].gen == e.gen {
				s.recycle(e.ei)
			}
		}
	}
	s.sched, s.head, s.unsorted = s.sched[:0], 0, false
	s.queue = s.queue[:0]
	s.live = 0
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.halted = false
	s.running = false
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the number of events still scheduled. Cancelled events
// leave the count immediately even while their tombstones remain queued.
func (s *Sim) Pending() int { return s.live }

// recycle returns a completed event slot to the free list. Bumping gen
// here invalidates every outstanding handle to this lifecycle and turns
// any queued entry for it into a tombstone.
func (s *Sim) recycle(ei int32) {
	ev := &s.events[ei]
	ev.gen++
	ev.fn = nil // release the closure for the collector
	s.free = append(s.free, ei)
}

// schedHead returns the pre-planned lane's head after sorting the lane if
// an out-of-order At left it unsorted and skipping tombstones. ok is
// false when the lane holds no live entry; the lane is then truncated to
// empty.
func (s *Sim) schedHead() (e entry, ok bool) {
	if s.unsorted {
		s.sortSched()
	}
	for ; s.head < len(s.sched); s.head++ {
		e = s.sched[s.head]
		if s.events[e.ei].gen == e.gen {
			return e, true
		}
	}
	s.sched, s.head = s.sched[:0], 0
	return entry{}, false
}

// queueHead returns the reactive lane's head after popping the tombstones
// off its front. The amortized cost is one extra pop per Cancel.
func (s *Sim) queueHead() (entry, bool) {
	for len(s.queue) > 0 {
		e := s.queue[0]
		if s.events[e.ei].gen == e.gen {
			return e, true
		}
		s.queue.pop()
	}
	return entry{}, false
}

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
// when the result lands in scratch.
func (s *Sim) sortSched() {
	s.unsorted = false
	src := s.sched[s.head:]
	n := len(src)
	dst := s.scratch[:n] // makeRoom keeps cap(scratch) == cap(sched)
	var counts [8][256]int32
	for _, e := range src {
		k := math.Float64bits(float64(e.at))
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	swapped := false
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
		for _, e := range src {
			d := byte(math.Float64bits(float64(e.at)) >> (8 * b))
			dst[off[d]] = e
			off[d]++
		}
		src, dst = dst, src
		swapped = !swapped
	}
	if swapped {
		s.sched, s.scratch, s.head = src, s.sched[:0], 0
	}
}

// makeRoom frees space at the end of the full pre-planned lane. A lane at
// least half spent slides its unfired part down, so a lane that never
// drains completely stays within twice its pending length. Otherwise the
// lane and the sort buffer double together, carved out of one allocation
// so the buffer never costs an allocation of its own.
func (s *Sim) makeRoom() {
	live := s.sched[s.head:]
	if c := cap(s.sched); s.head == 0 || 2*len(live) > c {
		c = max(2*c, 64)
		buf := make([]entry, 2*c)
		s.sched, s.scratch = buf[:0:c], buf[c:c]
	}
	n := copy(s.sched[:len(live)], live)
	s.sched, s.head = s.sched[:n], 0
}

// front returns the entry that fires next and whether it heads the
// pre-planned lane; ok is false when nothing is scheduled. Every
// front-of-queue read funnels through here, so both heads are pruned and
// the returned entry is live. On a tie in time the lower seq wins, so the
// two lanes fire in the single (time, seq) order.
func (s *Sim) front() (e entry, pre, ok bool) {
	se, sok := s.schedHead()
	qe, qok := s.queueHead()
	switch {
	case sok && (!qok || before(se, qe)):
		return se, true, true
	case qok:
		return qe, false, true
	}
	return entry{}, false, false
}

// fire removes e, the live head front returned, from its lane and runs it.
func (s *Sim) fire(e entry, pre bool) {
	if pre {
		s.head++
	} else {
		s.queue.pop()
	}
	s.now = e.at
	s.fired++
	s.live--
	fn := s.events[e.ei].fn
	// Recycle before running: the callback may schedule new events
	// (reusing this very slot), and any handle to this lifecycle is
	// invalidated by the gen bump first, so a self-Cancel inside fn is a
	// safe no-op.
	s.recycle(e.ei)
	running := s.running
	s.running = true
	fn()
	s.running = running
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a protocol bug, never a recoverable condition. A time of -0
// is scheduled as +0, the time it compares equal to.
func (s *Sim) At(t Time, fn func()) Handle {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, s.now))
	}
	if math.IsNaN(float64(t)) {
		panic("eventsim: scheduling at NaN time")
	}
	if t == 0 {
		t = 0 // -0 becomes +0: the pre-planned lane sorts on the float's bits
	}
	var ei int32
	if n := len(s.free); n > 0 {
		ei = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		ei = int32(len(s.events))
		s.events = append(s.events, event{})
	}
	ev := &s.events[ei]
	ev.fn = fn
	e := entry{at: t, seq: s.seq, gen: ev.gen, ei: ei}
	if s.running {
		s.queue.push(e)
	} else {
		n := len(s.sched)
		if n > s.head && t < s.sched[n-1].at {
			s.unsorted = true
		}
		if n == cap(s.sched) {
			s.makeRoom()
		}
		s.sched = append(s.sched, e)
	}
	s.seq++
	s.live++
	return Handle{s: s, ei: ei, gen: ev.gen}
}

// After schedules fn to run d seconds from now.
func (s *Sim) After(d Time, fn func()) Handle {
	return s.At(s.now+d, fn)
}

// Halt stops the run: Run returns after the current event completes.
func (s *Sim) Halt() { s.halted = true }

// Run executes events in order until the queue drains, Halt is called, or
// the simulated time would exceed deadline (events beyond the deadline stay
// unexecuted). It returns the number of events fired by this call.
func (s *Sim) Run(deadline Time) uint64 {
	start := s.fired
	s.halted = false
	for !s.halted {
		e, pre, ok := s.front()
		if !ok || e.at > deadline {
			break
		}
		s.fire(e, pre)
	}
	if s.now < deadline && s.live == 0 && !math.IsInf(float64(deadline), 1) {
		// Advance the clock to the deadline so successive Run calls see
		// monotonic time even over idle periods.
		s.now = deadline
	}
	return s.fired - start
}

// RunAll executes events until the queue drains or Halt is called, with no
// time limit. It returns the number of events fired by this call.
func (s *Sim) RunAll() uint64 {
	return s.Run(Time(math.Inf(1)))
}
