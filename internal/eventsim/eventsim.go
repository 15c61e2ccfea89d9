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
// is lazy — the O(log n) heap surgery of eager removal would require every
// sift to write the entry's position back into its event slot, and those
// scattered writes dominate the sift's cost — so Cancel just bumps the
// slot's generation (reclaiming the slot immediately) and the dead heap
// entry is skipped when it reaches the front. Handles carry the same
// generation so a handle to a recycled event can never touch its
// successor.
//
// The queue keeps two lanes, both ordered by (time, sequence): one for
// events scheduled while no callback is running (a round's pre-planned
// sends, queued before Run) and one for events scheduled by a firing
// callback (the reactive traffic of frames in flight). The next event is
// the earlier of the two heads, so the firing order is the single total
// order above. The split only keeps the reactive heap — the one nearly
// every push and pop touches — as small as the number of frames in flight
// instead of the whole round's pre-planned schedule. The lane follows from
// whether a callback is being dispatched; there is nothing to configure.
package eventsim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time float64

// Event is a scheduled callback. Events live in the Sim's slab and are
// addressed by index everywhere — heap entries, handles, the free list —
// so the scheduler's data structures carry no pointers: the slab may
// grow without invalidating references, sift writes need no GC write
// barriers, and the queue never needs scanning. gen distinguishes
// lifecycles: a heap entry or Handle whose gen no longer matches the
// slot's is dead, so stale Handles become no-ops and cancelled entries
// are skipped at pop time rather than acting on the next occupant of a
// recycled slot. The ordering key (time, sequence) lives in the heap
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
// immediately; its heap entry stays behind as a tombstone and is dropped
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

// Each lane of the event queue is a 4-ary min-heap over (at, seq)
// implemented concretely rather than through container/heap: the
// comparator is a strict total order, so pop order — the only thing
// determinism depends on — is independent of heap layout. Entries carry
// the ordering key by value, so comparisons and sift moves never leave the
// heap's backing array, and the 4-ary shape halves the depth a pop sifts
// through — together these cut the scheduler's share of a simulation's CPU
// profile by more than half versus the interface-dispatched pointer heap.
// Sifts move a hole instead of swapping, so each level costs one entry
// copy.

// heapEntry is one scheduled slot: the ordering key, the slab index of
// the event it belongs to, and the lifecycle it was scheduled in. An
// entry whose gen trails the slot's current gen is a tombstone left by
// Cancel.
type heapEntry struct {
	at  Time
	seq uint64
	gen uint32
	ei  int32
}

type eventHeap []heapEntry

// before reports whether a fires before b: earlier time first,
// scheduling order breaking ties.
func before(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e and restores the heap property.
func (h *eventHeap) push(e heapEntry) {
	*h = append(*h, heapEntry{})
	h.siftUp(e, int32(len(*h))-1)
}

// pop removes and returns the earliest entry, which may be a tombstone.
// The heap must be non-empty.
func (h *eventHeap) pop() heapEntry {
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
func (h eventHeap) siftUp(e heapEntry, i int32) {
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
func (h eventHeap) siftDown(e heapEntry, i int32) {
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
	now     Time
	seq     uint64
	sched   eventHeap // lane for events scheduled outside any callback
	queue   eventHeap // lane for events scheduled by a firing callback
	events  []event   // slab of event slots, addressed by index
	free    []int32   // recycled slab indices
	live    int       // scheduled events that are not tombstones
	fired   uint64
	halted  bool
	running bool // a callback is being dispatched
}

// New returns a fresh simulation at time zero.
func New() *Sim { return &Sim{} }

// NewWithCap returns a fresh simulation with capacity for n simultaneously
// scheduled events preallocated (heap slots in both lanes and pooled event
// structs), so a run that never exceeds n pending events performs no event
// allocation at all.
func NewWithCap(n int) *Sim {
	if n < 0 {
		n = 0
	}
	s := &Sim{
		sched:  make(eventHeap, 0, n),
		queue:  make(eventHeap, 0, n),
		events: make([]event, 0, n),
		free:   make([]int32, 0, n),
	}
	return s
}

// Reset rewinds the kernel to time zero for a fresh run while keeping its
// backing storage: any still-scheduled events in either lane are recycled
// into the free list (their handles are invalidated by the gen bump),
// tombstones are dropped, and both heaps keep their capacity. A Reset sim
// is indistinguishable from a New one — the clock, sequence counter, and
// fired count all restart — so a run on a reused kernel is byte-identical
// to a run on a fresh one.
func (s *Sim) Reset() {
	for _, h := range [2]*eventHeap{&s.sched, &s.queue} {
		for _, e := range *h {
			if s.events[e.ei].gen == e.gen {
				s.recycle(e.ei)
			}
		}
		*h = (*h)[:0]
	}
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
// any queued heap entry for it into a tombstone.
func (s *Sim) recycle(ei int32) {
	ev := &s.events[ei]
	ev.gen++
	ev.fn = nil // release the closure for the collector
	s.free = append(s.free, ei)
}

// prune drops tombstones off the front of lane h so its head, when it
// exists, is always a live entry. The amortized cost is one extra pop per
// Cancel.
func (s *Sim) prune(h *eventHeap) {
	for len(*h) > 0 {
		e := (*h)[0]
		if s.events[e.ei].gen == e.gen {
			return
		}
		h.pop()
	}
}

// front returns the lane whose head fires next, or nil when nothing is
// scheduled. Every front-of-queue read funnels through here, so both heads
// are pruned and the returned head is live.
func (s *Sim) front() *eventHeap {
	s.prune(&s.sched)
	s.prune(&s.queue)
	if len(s.queue) == 0 {
		if len(s.sched) == 0 {
			return nil
		}
		return &s.sched
	}
	if len(s.sched) > 0 && before(s.sched[0], s.queue[0]) {
		return &s.sched
	}
	return &s.queue
}

// fire pops lane h's head and runs it. The head must be live.
func (s *Sim) fire(h *eventHeap) {
	e := h.pop()
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
// it is always a protocol bug, never a recoverable condition.
func (s *Sim) At(t Time, fn func()) Handle {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, s.now))
	}
	if math.IsNaN(float64(t)) {
		panic("eventsim: scheduling at NaN time")
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
	e := heapEntry{at: t, seq: s.seq, gen: ev.gen, ei: ei}
	if s.running {
		s.queue.push(e)
	} else {
		s.sched.push(e)
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
		h := s.front()
		if h == nil || (*h)[0].at > deadline {
			break
		}
		s.fire(h)
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
