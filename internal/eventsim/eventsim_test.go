package eventsim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/ipda-sim/ipda/internal/rng"
)

func TestOrderByTime(t *testing.T) {
	s := New()
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	s.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	s := New()
	var at Time
	s.At(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.RunAll()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestDeadline(t *testing.T) {
	s := New()
	var got []Time
	for _, tt := range []Time{1, 2, 3, 4, 5} {
		tt := tt
		s.At(tt, func() { got = append(got, tt) })
	}
	n := s.Run(3)
	if n != 3 || len(got) != 3 {
		t.Fatalf("Run(3) fired %d events: %v", n, got)
	}
	// Remaining events still fire on a later Run.
	s.Run(10)
	if len(got) != 5 {
		t.Fatalf("second Run left events: %v", got)
	}
}

func TestIdleClockAdvancesToDeadline(t *testing.T) {
	s := New()
	s.Run(7)
	if s.Now() != 7 {
		t.Fatalf("idle Run left Now at %v", s.Now())
	}
	// Scheduling after an idle Run must not go backwards.
	fired := false
	s.After(1, func() { fired = true })
	s.Run(10)
	if !fired || s.Now() != 10 {
		t.Fatalf("post-idle event handling broken: fired=%v now=%v", fired, s.Now())
	}
}

func TestSchedulingDuringRun(t *testing.T) {
	s := New()
	var got []Time
	s.At(1, func() {
		got = append(got, s.Now())
		s.At(1.5, func() { got = append(got, s.Now()) })
		s.After(0, func() { got = append(got, s.Now()) }) // same-time event
	})
	s.At(2, func() { got = append(got, s.Now()) })
	s.RunAll()
	want := []Time{1, 1, 1.5, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(1, func() {})
}

func TestFiredAndPending(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	s.RunAll()
	if s.Fired() != 2 || s.Pending() != 0 {
		t.Fatalf("Fired=%d Pending=%d", s.Fired(), s.Pending())
	}
}

func TestManyEventsStress(t *testing.T) {
	s := New()
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		s.At(Time(i%997), func() { count++ })
	}
	s.RunAll()
	if count != n {
		t.Fatalf("fired %d of %d", count, n)
	}
}

func TestScheduleAllocFree(t *testing.T) {
	// Steady-state schedule+run must not allocate: both lanes keep their
	// capacity across drains.
	s := New()
	nop := func() {}
	s.After(1, nop)
	s.RunAll() // warm the lane
	allocs := testing.AllocsPerRun(200, func() {
		s.After(0.5, nop)
		s.After(1, nop)
		s.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("schedule/run allocated %v per run, want 0", allocs)
	}

	// Interleaved two-lane run: events scheduled outside Run land in one
	// lane, events their callbacks schedule in the other, with a tie across
	// lanes at 1.5. The last pre-planned event fires before the lane's
	// tail, so every run re-sorts the lane.
	react := func() {
		s.After(0, nop)
		s.After(0.5, nop)
	}
	round := func() {
		s.After(1, react)
		s.After(1.5, nop)
		s.After(2, nop)
		s.After(0.25, nop)
		if !s.unsorted {
			t.Fatal("out-of-order At left the pre-planned lane marked sorted")
		}
		s.RunAll()
	}
	round() // warm the callback lane and the sort buffer
	allocs = testing.AllocsPerRun(200, round)
	if allocs != 0 {
		t.Fatalf("two-lane schedule/run allocated %v per run, want 0", allocs)
	}
}

func TestPreplannedNegativeZero(t *testing.T) {
	// -0 compares equal to +0, so it fires before 0.5 and ties with +0 by
	// scheduling order; its float bits alone would sort it after every
	// positive time.
	s := New()
	var order []string
	var clock []Time
	s.At(0.5, func() { order = append(order, "0.5") })
	s.At(Time(math.Copysign(0, -1)), func() { order, clock = append(order, "-0"), append(clock, s.Now()) })
	s.At(0, func() { order = append(order, "+0") })
	s.RunAll()
	if !slices.Equal(order, []string{"-0", "+0", "0.5"}) {
		t.Fatalf("order = %v, want [-0 +0 0.5]", order)
	}
	if math.Signbit(float64(clock[0])) {
		t.Fatal("Now() read -0 inside the -0 event, want +0")
	}
}

func TestPreplannedLaneTieOrder(t *testing.T) {
	// Equal times fire in scheduling order after a radix sort whatever
	// number of byte passes it runs: {2, 3} and {1, 1+2^-52} differ in
	// one byte (one pass), the random pool in up to seven. A pass that
	// reversed or reshuffled equal digits would break a tie here.
	r := rng.New(5)
	random := make([]Time, 16)
	for i := range random {
		random[i] = Time(r.Float64() * 1e3)
	}
	for _, tc := range []struct {
		name string
		pool []Time
	}{
		{"one byte, high", []Time{2, 3}},
		{"one byte, low", []Time{1, Time(math.Nextafter(1, 2))}},
		{"many bytes", random},
		{"with -0 and +Inf", []Time{Time(math.Copysign(0, -1)), 0, 7, Time(math.Inf(1))}},
	} {
		s := New()
		var times []Time
		var got []int
		for id := range 500 {
			at := tc.pool[r.Intn(len(tc.pool))]
			times = append(times, at)
			s.At(at, func() { got = append(got, id) })
		}
		want := make([]int, len(times))
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int {
			switch {
			case times[a] < times[b]:
				return -1
			case times[a] > times[b]:
				return 1
			}
			return 0
		})
		s.RunAll()
		if !slices.Equal(got, want) {
			t.Errorf("%s: fired %v, want %v", tc.name, got, want)
		}
	}
}

func TestPreplannedLaneStaysBounded(t *testing.T) {
	// A lane that never drains completely (one far event stays pending)
	// must reuse its spent prefix instead of growing with every append;
	// once it does drain, it truncates to empty.
	s := New()
	s.At(1e9, func() {})
	for i := 0; i < 10000; i++ {
		s.After(1, func() {})
		s.Run(s.Now() + 1)
	}
	if c := cap(s.sched); c > 64 {
		t.Fatalf("pre-planned lane grew to cap %d holding %d pending events", c, s.Pending())
	}
	s.RunAll()
	if len(s.sched) != 0 || s.head != 0 {
		t.Fatalf("drained lane holds %d entries with the cursor at %d, want it truncated", len(s.sched), s.head)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.After(Time(i%100)*0.001, func() {})
		if i%1024 == 0 {
			s.RunAll()
		}
	}
	s.RunAll()
}

// BenchmarkPreplannedLane drives the pre-planned lane the way a steady
// N=400 iPDA round does (about 1,558 up-front events per round): per op,
// 1,158 slice sends at uniform offsets in a 2 s slicing window and 400
// aggregate sends in 0.25 s hop slots after it, all scheduled outside
// Run in node order, each firing one reactive follow-up.
func BenchmarkPreplannedLane(b *testing.B) {
	const sliceSends, aggSends = 1158, 400
	r := rng.New(1)
	offsets := make([]Time, 0, sliceSends+aggSends)
	for range sliceSends {
		offsets = append(offsets, Time(r.Float64())*2)
	}
	for i := range aggSends {
		hop := Time(i * 7 % 10)
		offsets = append(offsets, 2.5+hop*0.25+Time(r.Float64())*0.125)
	}
	s := New()
	nop := func() {}
	follow := func() { s.After(0.001, nop) }
	op := func() {
		t0 := s.Now()
		for _, o := range offsets {
			s.At(t0+o, follow)
		}
		s.RunAll()
	}
	op() // warm both lanes and the sort buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// strayCallbacks lists the slots, up to capacity, of the pre-planned
// lane, the sort buffer and the reactive lane that hold a callback
// outside the lane's live part. A pooled kernel lives as long as its
// worker, so such a slot would pin a spent closure and all it captures.
func strayCallbacks(s *Sim) []string {
	var stray []string
	check := func(name string, lane []entry, lo, hi int) {
		for i, e := range lane[:cap(lane)] {
			if e.fn != nil && (i < lo || i >= hi) {
				stray = append(stray, fmt.Sprintf("%s[%d]", name, i))
			}
		}
	}
	check("sched", s.sched, s.head, len(s.sched))
	check("scratch", s.scratch, 0, 0)
	check("queue", s.queue, 0, len(s.queue))
	return stray
}

func TestSpentCallbacksReleased(t *testing.T) {
	s := New()
	nop := func() {}
	follow := func() { s.After(0.5, nop) }
	expect := func(step string) {
		t.Helper()
		if stray := strayCallbacks(s); stray != nil {
			t.Fatalf("after %s: callbacks left in %v", step, stray)
		}
	}

	// Out of order, so the first front read sorts; a partial drain pops
	// from both lanes and leaves both live.
	for i := range 40 {
		s.At(Time((i*17)%40), follow)
	}
	s.Run(20.25)
	if s.head == 0 || len(s.queue) == 0 {
		t.Fatalf("partial drain left cursor %d and %d reactive entries", s.head, len(s.queue))
	}
	expect("a partial drain")

	// Re-sorts behind the cursor. The unfired keys {3, 2} differ in one
	// byte of their bits, so the sort runs one pass and the lane moves
	// into the sort buffer; adding 2+ulp makes a second pass, which lands
	// the result back in place.
	for _, tc := range []struct {
		late  []Time
		moves bool
	}{{[]Time{2}, true}, {[]Time{2, Time(math.Nextafter(2, 3))}, false}} {
		r := New()
		r.At(1, nop)
		r.At(3, nop)
		r.Run(1)
		for _, at := range tc.late {
			r.At(at, nop)
		}
		if !r.unsorted || r.head == 0 {
			t.Fatal("late At did not leave a partly drained lane unsorted")
		}
		base := &r.sched[0]
		r.Run(2)
		if moved := &r.sched[0] != base; moved != tc.moves {
			t.Fatalf("re-sort of %v: lane moved to the sort buffer = %v, want %v", tc.late, moved, tc.moves)
		}
		if stray := strayCallbacks(r); stray != nil {
			t.Fatalf("after a re-sort of %v: callbacks left in %v", tc.late, stray)
		}
	}

	// A slide: fill the lane to capacity while most of it has fired.
	s.RunAll()
	c := cap(s.sched)
	for i := range c {
		s.At(s.Now()+Time(i), nop)
	}
	s.Run(s.Now() + Time(c-c/4))
	s.At(s.Now()+Time(c), nop)
	if cap(s.sched) != c || s.head != 0 {
		t.Fatalf("lane did not slide: cap %d -> %d, cursor %d", c, cap(s.sched), s.head)
	}
	expect("a slide")

	// Reset with both lanes live.
	s.At(s.Now()+1, follow)
	s.Run(s.Now() + 1)
	if s.Pending() == 0 || len(s.queue) == 0 {
		t.Fatal("both lanes should hold entries before Reset")
	}
	s.Reset()
	expect("Reset")
}
