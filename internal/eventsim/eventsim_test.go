package eventsim

import (
	"testing"
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

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	h := s.At(1, func() { fired = true })
	h.Cancel()
	if !h.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	s.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Cancelling twice is a no-op.
	h.Cancel()
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

func TestHalt(t *testing.T) {
	s := New()
	count := 0
	s.At(1, func() { count++; s.Halt() })
	s.At(2, func() { count++ })
	s.RunAll()
	if count != 1 {
		t.Fatalf("Halt did not stop run, count = %d", count)
	}
	// A subsequent Run resumes.
	s.RunAll()
	if count != 2 {
		t.Fatalf("resume after Halt failed, count = %d", count)
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

func TestCancelAfterFireReportsFalse(t *testing.T) {
	// Regression: cancelling an event that already ran used to mark it
	// dead and report Cancelled()==true even though it fired.
	s := New()
	fired := false
	h := s.At(1, func() { fired = true })
	s.RunAll()
	h.Cancel()
	if !fired {
		t.Fatal("event did not fire")
	}
	if h.Cancelled() {
		t.Fatal("Cancelled() true for an event that ran")
	}
}

func TestCancelReapsEagerly(t *testing.T) {
	s := New()
	h := s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	h.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d after Cancel, want 1 (eager reap)", s.Pending())
	}
	if n := s.RunAll(); n != 1 {
		t.Fatalf("fired %d events, want 1", n)
	}
}

func TestDoubleCancelSafe(t *testing.T) {
	s := New()
	fired := 0
	h := s.At(1, func() { fired++ })
	h.Cancel()
	h.Cancel() // second cancel must not touch the (recycled) event
	// The recycled struct is reused by the next At; the stale handle must
	// not be able to cancel the new occupant.
	s.At(1, func() { fired++ })
	h.Cancel()
	if !h.Cancelled() {
		t.Fatal("first Cancel not recorded")
	}
	s.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (only the second event)", fired)
	}
}

func TestStaleHandleAfterReuse(t *testing.T) {
	s := New()
	var order []int
	h1 := s.At(1, func() { order = append(order, 1) })
	s.RunAll()
	// h1's event struct is back on the free list; the next At reuses it.
	s.At(2, func() { order = append(order, 2) })
	h1.Cancel() // stale: must not cancel the reused event
	if h1.Cancelled() {
		t.Fatal("stale handle reported Cancelled")
	}
	s.RunAll()
	if len(order) != 2 {
		t.Fatalf("order = %v, want both events to fire", order)
	}
}

func TestSelfCancelInsideCallback(t *testing.T) {
	s := New()
	ran := false
	var h Handle
	h = s.At(1, func() {
		h.Cancel() // cancelling the running event is a no-op
		ran = true
	})
	s.At(2, func() {})
	s.RunAll()
	if !ran {
		t.Fatal("callback did not run")
	}
	if h.Cancelled() {
		t.Fatal("self-cancel of a running event reported Cancelled")
	}
	if s.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", s.Fired())
	}
}

func TestCancelDuringRunOfLaterEvent(t *testing.T) {
	s := New()
	fired := 0
	var h Handle
	s.At(1, func() { h.Cancel() })
	h = s.At(2, func() { fired++ })
	s.At(3, func() { fired++ })
	s.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (t=2 cancelled from t=1)", fired)
	}
	if !h.Cancelled() {
		t.Fatal("cancel during run not recorded")
	}
}

func TestNewWithCap(t *testing.T) {
	s := NewWithCap(8)
	count := 0
	for i := 0; i < 32; i++ { // exceed the prealloc to exercise growth
		s.At(Time(i), func() { count++ })
	}
	s.RunAll()
	if count != 32 {
		t.Fatalf("fired %d of 32", count)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d", s.Pending())
	}
}

func TestScheduleAllocFree(t *testing.T) {
	// Steady-state schedule+run must not allocate: event structs recycle
	// through the free list.
	s := NewWithCap(4)
	nop := func() {}
	s.After(1, nop)
	s.RunAll() // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		h := s.After(0.5, nop)
		s.After(1, nop)
		h.Cancel()
		s.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("schedule/cancel/run allocated %v per run, want 0", allocs)
	}

	// Interleaved two-lane run: events scheduled outside Run land in one
	// lane, events their callbacks schedule in the other, with a tie across
	// lanes at 1.5 and a cancelled entry in each lane.
	react := func() {
		h := s.After(0, nop)
		s.After(0.5, nop)
		h.Cancel()
	}
	s.After(1, react)
	s.RunAll() // warm the callback lane
	allocs = testing.AllocsPerRun(200, func() {
		s.After(1, react)
		s.After(1.5, nop)
		h := s.After(2, nop)
		h.Cancel()
		s.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("two-lane schedule/cancel/run allocated %v per run, want 0", allocs)
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

// BenchmarkEventChurn measures the schedule/cancel/drain cycle the CSMA
// layer produces: per op, two timers armed, one cancelled, with periodic
// drains. Pre-PR baseline (heap-allocated events, lazy dead-entry reaping):
// 809 ns/op, 96 B/op, 2 allocs/op.
func BenchmarkEventChurn(b *testing.B) {
	s := New()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h1 := s.After(0.001, nop)
		h2 := s.After(0.002, nop)
		h2.Cancel()
		_ = h1
		if i%1024 == 1023 {
			s.RunAll()
		}
	}
	s.RunAll()
}
