package harness

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func testSweep(points, trials, workers int) Sweep {
	return Sweep{ID: "test", Seed: 7, Points: points, Trials: trials, Workers: workers}
}

func TestRunCoversGridOnce(t *testing.T) {
	s := testSweep(5, 4, 3)
	var mu sync.Mutex
	seen := map[[2]int]int{}
	err := s.Run(func(tr *T) error {
		mu.Lock()
		seen[[2]int{tr.Point, tr.Trial}]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 20 {
		t.Fatalf("saw %d cells, want 20", len(seen))
	}
	for cell, n := range seen {
		if n != 1 {
			t.Fatalf("cell %v ran %d times", cell, n)
		}
	}
}

func TestRunEmptyGrid(t *testing.T) {
	if err := testSweep(0, 10, 2).Run(func(*T) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicAcrossWorkers is the core contract: the folded
// accumulator state is bit-identical no matter how trials are scheduled.
func TestDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []float64 {
		s := testSweep(6, 5, workers)
		acc := NewAcc(s)
		if err := s.Run(func(tr *T) error {
			acc.Add(tr, tr.Rng.Float64())
			acc.Add(tr, tr.Rng.Float64()-tr.Rng.Float64())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var out []float64
		for p := 0; p < s.Points; p++ {
			sm := acc.Point(p)
			out = append(out, sm.Mean(), sm.Variance(), sm.Max(), float64(sm.N()))
		}
		return out
	}
	seq := run(1)
	for _, w := range []int{2, 4, 8, 32} {
		par := run(w)
		for i := range seq {
			if seq[i] != par[i] { // bit-exact, not approximate
				t.Fatalf("workers=%d: summary[%d] = %v, want %v", w, i, par[i], seq[i])
			}
		}
	}
}

func TestSeedPathsIndependent(t *testing.T) {
	// Every (point, trial) cell draws a distinct stream, and the
	// experiment ID participates in the derivation.
	draw := func(id string, seed uint64) map[uint64][2]int {
		s := Sweep{ID: id, Seed: seed, Points: 3, Trials: 3, Workers: 1}
		var mu sync.Mutex
		out := map[uint64][2]int{}
		if err := s.Run(func(tr *T) error {
			v := tr.Rng.Uint64()
			mu.Lock()
			if prev, dup := out[v]; dup {
				t.Errorf("stream collision between %v and %v", prev, [2]int{tr.Point, tr.Trial})
			}
			out[v] = [2]int{tr.Point, tr.Trial}
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := draw("expA", 1)
	b := draw("expB", 1)
	for v := range a {
		if _, dup := b[v]; dup {
			t.Fatal("distinct sweep IDs shared a stream")
		}
	}
}

func TestErrorCancelsSweep(t *testing.T) {
	s := testSweep(10, 10, 4)
	boom := errors.New("boom")
	var ran atomic.Int64
	err := s.Run(func(tr *T) error {
		ran.Add(1)
		if tr.Point == 2 && tr.Trial == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if want := "harness: test point 2 trial 3"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %q, want it to locate the grid cell %q", err, want)
	}
	if ran.Load() == 100 {
		t.Fatal("sweep was not cancelled: every trial ran")
	}
}

func TestLowestIndexedErrorWins(t *testing.T) {
	// Sequential execution: the first failing cell is reported even
	// though a later cell also fails.
	s := testSweep(4, 1, 1)
	err := s.Run(func(tr *T) error {
		if tr.Point >= 1 {
			return fmt.Errorf("fail-%d", tr.Point)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "fail-1") {
		t.Fatalf("err = %v, want fail-1", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	s := testSweep(2, 2, 2)
	err := s.Run(func(tr *T) error {
		if tr.Point == 1 && tr.Trial == 1 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
}

func TestProgressReachesTotal(t *testing.T) {
	s := testSweep(3, 4, 2)
	var mu sync.Mutex
	last, calls := 0, 0
	s.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != 12 {
			t.Errorf("total = %d, want 12", total)
		}
		if done != last+1 {
			t.Errorf("done = %d after %d: not monotone", done, last)
		}
		last = done
		calls++
	}
	if err := s.Run(func(*T) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 12 || last != 12 {
		t.Fatalf("progress calls = %d last = %d, want 12/12", calls, last)
	}
}

func TestAccSummaries(t *testing.T) {
	s := testSweep(2, 4, 1)
	acc := NewAcc(s)
	hit := NewAcc(s)
	if err := s.Run(func(tr *T) error {
		if tr.Point == 1 && tr.Trial == 3 {
			return nil // skipped trial: leaves its cell empty
		}
		acc.Add(tr, float64(tr.Trial+1))
		hit.AddBool(tr, tr.Trial%2 == 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	p0 := acc.Point(0) // 1, 2, 3, 4
	if p0.N() != 4 || p0.Mean() != 2.5 || p0.Max() != 4 {
		t.Fatalf("point 0 summary: n=%d mean=%v max=%v", p0.N(), p0.Mean(), p0.Max())
	}
	if v := p0.Variance(); math.Abs(v-5.0/3.0) > 1e-12 {
		t.Fatalf("point 0 variance = %v, want 5/3", v)
	}
	p1 := acc.Point(1) // 1, 2, 3 (trial 3 skipped)
	if p1.N() != 3 || p1.Mean() != 2 {
		t.Fatalf("point 1 summary: n=%d mean=%v", p1.N(), p1.Mean())
	}
	if h := hit.Point(0); h.N() != 4 || h.Mean() != 0.5 {
		t.Fatalf("bool point 0: n=%d mean=%v", h.N(), h.Mean())
	}
}
