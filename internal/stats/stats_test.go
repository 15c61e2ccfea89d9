package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func addAll(s *Sample, xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

func TestSampleMoments(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	// Population variance of this classic set is 4; unbiased = 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v", s.Variance())
	}
	if s.Max() != 9 {
		t.Fatalf("Max = %v", s.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSampleSingle(t *testing.T) {
	var s Sample
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 || s.Max() != 3.5 {
		t.Fatal("single-observation sample wrong")
	}
}

func TestMergeEquivalentToSequential(t *testing.T) {
	if err := quick.Check(func(a, b []float64) bool {
		clean := func(xs []float64) []float64 {
			out := xs[:0]
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) {
					out = append(out, math.Mod(x, 1e6))
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		var s1, s2, merged Sample
		addAll(&s1, a)
		addAll(&s2, b)
		merged = s1
		merged.Merge(&s2)
		var ref Sample
		addAll(&ref, a)
		addAll(&ref, b)
		if merged.N() != ref.N() {
			return false
		}
		if ref.N() == 0 {
			return true
		}
		tol := 1e-9 * (1 + math.Abs(ref.Mean()))
		return math.Abs(merged.Mean()-ref.Mean()) < tol &&
			math.Abs(merged.Variance()-ref.Variance()) < 1e-6*(1+ref.Variance())
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeMinMax(t *testing.T) {
	var a, b Sample
	addAll(&a, []float64{5, 6, 7})
	addAll(&b, []float64{1, 10})
	a.Merge(&b)
	if a.Max() != 10 {
		t.Fatalf("merged max = %v", a.Max())
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	var small, large Sample
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 5))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 5))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI95 did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}
