package eventsim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/ipda-sim/ipda/internal/rng"
)

// model is the kernel surface the differential test drives, implemented by
// the Sim under test and by refSim, a brute-force reference that keeps its
// pending events in one unsorted slice and scans it for the (at, seq)
// minimum on every step. Events are named by script-assigned ids.
type model interface {
	at(t Time, id int)
	cancel(id int) bool // Cancelled() of the id's handle after a Cancel
	halt()
	run(deadline Time) uint64
	reset()
	now() Time
	pending() int
}

// refSim is the reference kernel.
type refSim struct {
	clock     Time
	seq       uint64
	pend      []refEntry
	cancelled map[int]bool
	halted    bool
	fire      func(id int)
}

type refEntry struct {
	at  Time
	seq uint64
	id  int
}

func (r *refSim) at(t Time, id int) {
	r.pend = append(r.pend, refEntry{at: t, seq: r.seq, id: id})
	r.seq++
}

func (r *refSim) cancel(id int) bool {
	for i, e := range r.pend {
		if e.id == id {
			r.pend = slices.Delete(r.pend, i, i+1)
			r.cancelled[id] = true
			break
		}
	}
	return r.cancelled[id]
}

func (r *refSim) halt()        { r.halted = true }
func (r *refSim) now() Time    { return r.clock }
func (r *refSim) pending() int { return len(r.pend) }

// min returns the index of the next event to fire, or -1.
func (r *refSim) min() int {
	m := -1
	for i, e := range r.pend {
		if m < 0 || e.at < r.pend[m].at || (e.at == r.pend[m].at && e.seq < r.pend[m].seq) {
			m = i
		}
	}
	return m
}

// loop fires events until none is left, Halt is called, or stop accepts
// the next event's time.
func (r *refSim) loop(stop func(at Time) bool) uint64 {
	var n uint64
	r.halted = false
	for !r.halted {
		m := r.min()
		if m < 0 || stop(r.pend[m].at) {
			break
		}
		e := r.pend[m]
		r.pend = slices.Delete(r.pend, m, m+1)
		r.clock = e.at
		n++
		r.fire(e.id)
	}
	return n
}

func (r *refSim) run(deadline Time) uint64 {
	n := r.loop(func(at Time) bool { return at > deadline })
	if r.clock < deadline && len(r.pend) == 0 && !math.IsInf(float64(deadline), 1) {
		r.clock = deadline
	}
	return n
}

func (r *refSim) reset() {
	r.pend = r.pend[:0]
	r.clock, r.seq = 0, 0
}

// simModel adapts a Sim to model. It also counts, white-box, the
// situations the two-lane queue must get right, so the test can insist
// the random schedules actually reached them.
type simModel struct {
	s       *Sim
	handles map[int]*Handle
	lane    map[int]bool // id -> scheduled from inside a callback
	fire    func(id int)

	crossTies   int // fired while the other lane's head shared its time
	resetsBoth  int // Reset with both lanes holding live entries
	cancelsLane [2]int
}

func (m *simModel) at(t Time, id int) {
	h := m.s.At(t, func() {
		other := &m.s.queue
		if m.lane[id] {
			other = &m.s.sched
		}
		m.s.prune(other)
		if len(*other) > 0 && (*other)[0].at == m.s.now {
			m.crossTies++
		}
		m.fire(id)
	})
	m.handles[id] = &h
	m.lane[id] = m.s.running
}

func (m *simModel) cancel(id int) bool {
	h := m.handles[id]
	if h == nil {
		return false
	}
	if m.s.events[h.ei].gen == h.gen {
		if m.lane[id] {
			m.cancelsLane[1]++
		} else {
			m.cancelsLane[0]++
		}
	}
	h.Cancel()
	return h.Cancelled()
}

func (m *simModel) halt()                    { m.s.Halt() }
func (m *simModel) run(deadline Time) uint64 { return m.s.Run(deadline) }
func (m *simModel) now() Time                { return m.s.Now() }
func (m *simModel) pending() int             { return m.s.Pending() }

func (m *simModel) reset() {
	m.s.prune(&m.s.sched)
	m.s.prune(&m.s.queue)
	if len(m.s.sched) > 0 && len(m.s.queue) > 0 {
		m.resetsBoth++
	}
	m.s.Reset()
}

// deltas are the offsets events are scheduled at. They are few and
// exactly representable, so equal-time ties — within a lane and across
// lanes — are common.
var deltas = []Time{0, 0.25, 0.5, 1, 2}

// script is one random schedule. Each event's reaction (children
// scheduled from inside its callback, a cancel, a halt) derives from
// (seed, id) alone, so the schedule replays identically on any model
// that fires events in the same order; the log records every observable
// outcome for comparison.
type script struct {
	m    model
	seed uint64
	next int
	log  []string
}

const maxScriptEvents = 1500

func (sc *script) schedule(d Time) {
	id := sc.next
	sc.next++
	sc.m.at(sc.m.now()+d, id)
}

func (sc *script) record(format string, args ...any) {
	sc.log = append(sc.log, fmt.Sprintf(format, args...))
}

func (sc *script) fire(id int) {
	sc.record("fire %d @%v", id, sc.m.now())
	r := rng.New(sc.seed).Split(uint64(id) + 1)
	if sc.next < maxScriptEvents {
		for k := r.Intn(3); k > 0; k-- {
			sc.schedule(deltas[r.Intn(len(deltas))])
		}
	}
	if r.Bool(0.25) {
		// Any id scheduled so far: itself (running, so a no-op), one
		// already fired or cancelled, or one still pending in either lane.
		victim := r.Intn(sc.next)
		sc.record("cancel %d in %d -> %v", victim, id, sc.m.cancel(victim))
	}
	if r.Bool(0.03) {
		sc.m.halt()
		sc.record("halt in %d", id)
	}
}

// drive runs the outer schedule: steps taken outside any callback that
// schedule, cancel, reset, and run the kernel in each of its modes.
func (sc *script) drive() {
	r := rng.New(sc.seed).Split(0)
	for step := 0; step < 80; step++ {
		switch op := r.Intn(10); op {
		case 0, 1, 2:
			for k := 1 + r.Intn(4); k > 0; k-- {
				sc.schedule(deltas[r.Intn(len(deltas))] + Time(r.Intn(3)))
			}
			sc.record("scheduled up to %d", sc.next)
		case 3:
			d := sc.m.now() + Time(r.Intn(4))
			sc.record("run(%v) = %d", d, sc.m.run(d))
		case 4, 5:
			// A short bounded run; a zero delta drains just the instant.
			d := sc.m.now() + deltas[r.Intn(len(deltas))]
			sc.record("run(%v) = %d", d, sc.m.run(d))
		case 6, 7:
			if sc.next > 0 {
				victim := r.Intn(sc.next)
				sc.record("cancel %d outside -> %v", victim, sc.m.cancel(victim))
			}
		case 8:
			if r.Bool(0.3) {
				sc.m.reset()
				sc.record("reset")
			}
		case 9:
			sc.record("runAll = %d", sc.m.run(inf))
		}
		sc.record("now %v pending %d", sc.m.now(), sc.m.pending())
	}
	sc.record("final runAll = %d", sc.m.run(inf))
}

var inf = Time(math.Inf(1))

func TestDifferentialAgainstReference(t *testing.T) {
	var crossTies, resetsBoth int
	var cancels [2]int
	for seed := uint64(1); seed <= 60; seed++ {
		ref := &script{seed: seed}
		rm := &refSim{cancelled: map[int]bool{}, fire: ref.fire}
		ref.m = rm
		ref.drive()

		got := &script{seed: seed}
		sm := &simModel{s: New(), handles: map[int]*Handle{}, lane: map[int]bool{}, fire: got.fire}
		got.m = sm
		got.drive()

		if i := firstDiff(ref.log, got.log); i >= 0 {
			lo := max(0, i-5)
			t.Fatalf("seed %d: logs diverge at entry %d\nreference: %q\nsim:       %q",
				seed, i, ref.log[lo:min(i+1, len(ref.log))], got.log[lo:min(i+1, len(got.log))])
		}
		crossTies += sm.crossTies
		resetsBoth += sm.resetsBoth
		cancels[0] += sm.cancelsLane[0]
		cancels[1] += sm.cancelsLane[1]
	}
	// The schedules must have exercised what the lanes could get wrong.
	if crossTies == 0 || resetsBoth == 0 || cancels[0] == 0 || cancels[1] == 0 {
		t.Fatalf("coverage: %d cross-lane ties, %d resets with both lanes live, %v live cancels per lane",
			crossTies, resetsBoth, cancels)
	}
}

func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func TestCrossLaneTieOrder(t *testing.T) {
	// Equal times fire in scheduling order whichever lane holds them: A and
	// C are scheduled outside any callback, B from inside one in between.
	s := New()
	var order []string
	s.At(2, func() { order = append(order, "A") })
	s.At(0, func() {
		s.At(2, func() { order = append(order, "B") })
	})
	s.Run(0)
	s.At(2, func() { order = append(order, "C") })
	if len(s.sched) != 2 || len(s.queue) != 1 {
		t.Fatalf("lanes hold %d/%d entries, want 2 scheduled outside and 1 inside", len(s.sched), len(s.queue))
	}
	s.RunAll()
	if !slices.Equal(order, []string{"A", "B", "C"}) {
		t.Fatalf("order = %v, want [A B C]", order)
	}
}
