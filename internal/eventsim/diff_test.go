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
	run(deadline Time) uint64
	reset()
	now() Time
	pending() int
}

// refSim is the reference kernel.
type refSim struct {
	clock Time
	seq   uint64
	pend  []refEntry
	fire  func(id int)
}

type refEntry struct {
	at  Time
	seq uint64
	id  int
}

// at schedules as Sim.At specifies: a time of -0 is scheduled as +0. The
// reference orders with float comparisons, where -0 equals +0, so the
// normalisation only fixes the clock a firing sets.
func (r *refSim) at(t Time, id int) {
	if t == 0 {
		t = 0
	}
	r.pend = append(r.pend, refEntry{at: t, seq: r.seq, id: id})
	r.seq++
}

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

func (r *refSim) run(deadline Time) uint64 {
	var n uint64
	for {
		m := r.min()
		if m < 0 || r.pend[m].at > deadline {
			break
		}
		e := r.pend[m]
		r.pend = slices.Delete(r.pend, m, m+1)
		r.clock = e.at
		n++
		r.fire(e.id)
	}
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
	s    *Sim
	lane map[int]bool // id -> scheduled from inside a callback
	fire func(id int)

	crossTies  int // fired while the other lane's head shared its time
	resetsBoth int // Reset with both lanes holding entries
	resorts    int // out-of-order pre-planned At with the cursor past 0
	negZeros   int // pre-planned At(-0) behind a later tail
}

// otherHead returns the time at the head of the lane id was not scheduled
// in. It is read as id fires, right after the front read that sorted the
// pre-planned lane.
func (m *simModel) otherHead(id int) (Time, bool) {
	s := m.s
	if m.lane[id] {
		if s.head < len(s.sched) {
			return s.sched[s.head].at, true
		}
	} else if len(s.queue) > 0 {
		return s.queue[0].at, true
	}
	return 0, false
}

func (m *simModel) at(t Time, id int) {
	s := m.s
	pre, wasUnsorted := !s.running, s.unsorted
	if n := len(s.sched); pre && n > s.head && t < s.sched[n-1].at && t == 0 && math.Signbit(float64(t)) {
		m.negZeros++
	}
	s.At(t, func() {
		if at, ok := m.otherHead(id); ok && at == s.now {
			m.crossTies++
		}
		m.fire(id)
	})
	if pre && !wasUnsorted && s.unsorted && s.head > 0 {
		m.resorts++ // the next front read sorts sched[head:] with head > 0
	}
	m.lane[id] = s.running
}

func (m *simModel) run(deadline Time) uint64 { return m.s.Run(deadline) }
func (m *simModel) now() Time                { return m.s.Now() }
func (m *simModel) pending() int             { return m.s.Pending() }

func (m *simModel) reset() {
	if len(m.s.sched) > m.s.head && len(m.s.queue) > 0 {
		m.resetsBoth++
	}
	m.s.Reset()
}

// deltas are the offsets events are scheduled at. They are few and
// exactly representable, so equal-time ties — within a lane and across
// lanes — are common. -0 schedules at -0 while the clock reads zero (see
// schedule), a time whose float bits sort after every positive time.
var deltas = []Time{0, Time(math.Copysign(0, -1)), 0.25, 0.5, 1, 2}

// script is one schedule. What each event schedules from inside its
// callback derives from its id alone (children), so the schedule replays
// identically on any model that fires events in the same order; the log
// records every observable outcome for comparison.
type script struct {
	m        model
	next     int
	log      []string
	children func(id int) []Time // deltas event id schedules when it fires
}

const maxScriptEvents = 1500

func (sc *script) schedule(d Time) {
	id := sc.next
	sc.next++
	t := sc.m.now() + d
	if t == 0 {
		t = d // +0 + -0 is +0; keep the delta's sign at time zero
	}
	sc.m.at(t, id)
}

func (sc *script) record(format string, args ...any) {
	sc.log = append(sc.log, fmt.Sprintf(format, args...))
}

func (sc *script) fire(id int) {
	sc.record("fire %d @%v", id, sc.m.now())
	if sc.next < maxScriptEvents {
		for _, d := range sc.children(id) {
			sc.schedule(d)
		}
	}
}

// randomChildren schedules zero to two children per event, drawn from a
// stream split off seed by the event's id.
func randomChildren(seed uint64) func(id int) []Time {
	return func(id int) []Time {
		r := rng.New(seed).Split(uint64(id) + 1)
		var ds []Time
		for k := r.Intn(3); k > 0; k-- {
			ds = append(ds, deltas[r.Intn(len(deltas))])
		}
		return ds
	}
}

// drive runs the outer schedule: steps taken outside any callback that
// schedule, reset, and run the kernel in each of its modes.
func (sc *script) drive(seed uint64) {
	r := rng.New(seed).Split(0)
	for step := 0; step < 80; step++ {
		switch op := r.Intn(8); op {
		case 0, 1, 2:
			for k := 1 + r.Intn(4); k > 0; k-- {
				d := deltas[r.Intn(len(deltas))]
				if off := r.Intn(3); off > 0 {
					d += Time(off) // only a zero offset keeps a -0 delta's sign
				}
				sc.schedule(d)
			}
			sc.record("scheduled up to %d", sc.next)
		case 3:
			d := sc.m.now() + Time(r.Intn(4))
			sc.record("run(%v) = %d", d, sc.m.run(d))
		case 4, 5:
			// A short bounded run; a zero delta drains just the instant.
			d := sc.m.now() + deltas[r.Intn(len(deltas))]
			sc.record("run(%v) = %d", d, sc.m.run(d))
		case 6:
			if r.Bool(0.3) {
				sc.m.reset()
				sc.record("reset")
			}
		case 7:
			sc.record("runAll = %d", sc.m.run(inf))
		}
		sc.record("now %v pending %d", sc.m.now(), sc.m.pending())
	}
	sc.record("final runAll = %d", sc.m.run(inf))
}

var inf = Time(math.Inf(1))

// replay runs one schedule on the reference and on a fresh Sim and
// returns both logs and the Sim's model for its reached-case counts.
func replay(children func(id int) []Time, drive func(*script)) (ref, got []string, sm *simModel) {
	rs := &script{children: children}
	rs.m = &refSim{fire: rs.fire}
	drive(rs)

	gs := &script{children: children}
	sm = &simModel{s: New(), lane: map[int]bool{}, fire: gs.fire}
	gs.m = sm
	drive(gs)
	return rs.log, gs.log, sm
}

// diverge formats the first difference between two logs, or returns "".
func diverge(ref, got []string) string {
	i := firstDiff(ref, got)
	if i < 0 {
		return ""
	}
	lo := max(0, i-5)
	return fmt.Sprintf("logs diverge at entry %d\nreference: %q\nsim:       %q",
		i, ref[lo:min(i+1, len(ref))], got[lo:min(i+1, len(got))])
}

func TestDifferentialAgainstReference(t *testing.T) {
	var crossTies, resetsBoth, resorts, negZeros int
	for seed := uint64(1); seed <= 60; seed++ {
		ref, got, sm := replay(randomChildren(seed), func(sc *script) { sc.drive(seed) })
		if d := diverge(ref, got); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
		crossTies += sm.crossTies
		resetsBoth += sm.resetsBoth
		resorts += sm.resorts
		negZeros += sm.negZeros
	}
	// The schedules must have exercised what the lanes could get wrong.
	if crossTies == 0 || resetsBoth == 0 || resorts == 0 || negZeros == 0 {
		t.Fatalf("coverage: %d cross-lane ties, %d resets with both lanes live, "+
			"%d re-sorts after a partial drain, %d pre-planned -0 times behind a later tail",
			crossTies, resetsBoth, resorts, negZeros)
	}
}

// fuzzDeltas extends deltas with +Inf: an event there fires only under
// an unbounded run, which moves the clock to +Inf for good.
var fuzzDeltas = append(slices.Clone(deltas), inf)

// FuzzKernel decodes the input into a schedule — events scheduled outside
// and inside callbacks at few exact times, so ties within and across
// lanes are common, with -0 and +Inf among them — interleaved with
// bounded runs, unbounded runs and Resets that may catch both lanes
// live. The Sim must fire in the reference's order and agree with it on
// Now and Pending after every step, and no slot outside the live part of
// a lane or the sort buffer may hold a callback.
func FuzzKernel(f *testing.F) {
	f.Add([]byte{0, 4, 0, 4, 0, 4, 0, 2, 5, 0}) // a tie at 1 sorted behind 0.25
	f.Add([]byte{0, 9, 1, 14, 2, 1, 5, 0})
	f.Add([]byte{0, 6, 0, 1, 1, 3, 3, 1, 4, 0, 0, 2, 5, 0})
	f.Add([]byte{1, 255, 0, 128, 2, 3, 0, 7, 4, 0, 1, 12, 5, 0, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		children := func(id int) []Time {
			if len(data) == 0 {
				return nil
			}
			b := data[(id*7+3)%len(data)] ^ byte(id)
			ds := make([]Time, b%3)
			for k := range ds {
				ds[k] = fuzzDeltas[int(b>>(2+3*k))%len(fuzzDeltas)]
			}
			return ds
		}
		var stray []string
		drive := func(sc *script) {
			sm, _ := sc.m.(*simModel)
			for i := 0; i+1 < len(data); i += 2 {
				op, arg := data[i]%6, int(data[i+1])
				switch op {
				case 0:
					sc.schedule(fuzzDeltas[arg%len(fuzzDeltas)])
				case 1:
					// An offset drops a -0 delta's sign; +Inf absorbs it.
					sc.schedule(Time(arg%4) + fuzzDeltas[arg/4%len(fuzzDeltas)])
				case 2:
					d := sc.m.now() + fuzzDeltas[arg%len(fuzzDeltas)]
					sc.record("run(%v) = %d", d, sc.m.run(d))
				case 3:
					d := sc.m.now() + Time(arg%4)
					sc.record("run(%v) = %d", d, sc.m.run(d))
				case 4:
					sc.m.reset()
					sc.record("reset")
				case 5:
					sc.record("runAll = %d", sc.m.run(inf))
				}
				sc.record("now %v pending %d", sc.m.now(), sc.m.pending())
				if sm != nil && stray == nil {
					stray = strayCallbacks(sm.s)
				}
			}
			sc.record("final runAll = %d", sc.m.run(inf))
		}
		ref, got, _ := replay(children, drive)
		if d := diverge(ref, got); d != "" {
			t.Fatal(d)
		}
		if stray != nil {
			t.Fatalf("callbacks left outside the live lanes: %v", stray)
		}
	})
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
	if pre := len(s.sched) - s.head; pre != 2 || len(s.queue) != 1 {
		t.Fatalf("lanes hold %d/%d entries, want 2 scheduled outside and 1 inside", pre, len(s.queue))
	}
	s.RunAll()
	if !slices.Equal(order, []string{"A", "B", "C"}) {
		t.Fatalf("order = %v, want [A B C]", order)
	}
}
