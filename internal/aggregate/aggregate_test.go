package aggregate

import (
	"math"
	"testing"
	"testing/quick"
)

// run simulates loss-free additive aggregation of readings under spec.
func run(t *testing.T, spec Spec, readings []int64) float64 {
	t.Helper()
	sums := make([]int64, spec.Rounds())
	for round := 0; round < spec.Rounds(); round++ {
		for _, r := range readings {
			c, err := spec.Contribution(r, round)
			if err != nil {
				t.Fatalf("Contribution(%d, %d): %v", r, round, err)
			}
			sums[round] += c
		}
	}
	out, err := spec.Finalize(sums, uint32(len(readings)))
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return out
}

func TestSum(t *testing.T) {
	got := run(t, SpecFor(Sum), []int64{1, 2, 3, -4})
	if got != 2 {
		t.Fatalf("sum = %v", got)
	}
}

func TestCount(t *testing.T) {
	got := run(t, SpecFor(Count), []int64{10, 20, 30})
	if got != 3 {
		t.Fatalf("count = %v", got)
	}
}

func TestAverage(t *testing.T) {
	got := run(t, SpecFor(Average), []int64{2, 4, 9})
	if got != 5 {
		t.Fatalf("average = %v", got)
	}
}

func TestVariance(t *testing.T) {
	// Population variance of {2,4,4,4,5,5,7,9} is 4.
	got := run(t, SpecFor(Variance), []int64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-4) > 1e-9 {
		t.Fatalf("variance = %v", got)
	}
}

func TestVarianceMatchesDefinition(t *testing.T) {
	if err := quick.Check(func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		readings := make([]int64, len(raw))
		var mean float64
		for i, v := range raw {
			readings[i] = int64(v)
			mean += float64(v)
		}
		mean /= float64(len(raw))
		var want float64
		for _, v := range raw {
			want += (float64(v) - mean) * (float64(v) - mean)
		}
		want /= float64(len(raw))
		spec := SpecFor(Variance)
		sums := make([]int64, 2)
		for round := 0; round < 2; round++ {
			for _, r := range readings {
				c, err := spec.Contribution(r, round)
				if err != nil {
					return false
				}
				sums[round] += c
			}
		}
		got, err := spec.Finalize(sums, uint32(len(readings)))
		if err != nil {
			return false
		}
		return math.Abs(got-want) < 1e-6*(1+want)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxApproximation(t *testing.T) {
	readings := []int64{100, 250, 400, 900, 1200}
	got := run(t, SpecFor(Max), readings)
	// The k-th power mean of n values lies in [max, max·n^(1/k)]:
	// n=5, k=8 gives at most a 1.22x overestimate.
	if got < 1200*0.999 || got > 1200*1.25 {
		t.Fatalf("max estimate %v for true max 1200", got)
	}
}

func TestMinApproximation(t *testing.T) {
	readings := []int64{100, 250, 400, 900, 1200}
	got := run(t, SpecFor(Min), readings)
	// Symmetrically, the estimate lies in [min/n^(1/k), min].
	if got > 100*1.001 || got < 100/1.25 {
		t.Fatalf("min estimate %v for true min 100", got)
	}
}

func TestMinMaxAccuracyImprovesWithPower(t *testing.T) {
	readings := []int64{900, 950, 1000}
	lo := run(t, Spec{Kind: Max, Power: 4, Normal: 4096}, readings)
	hi := run(t, Spec{Kind: Max, Power: 16, Normal: 4096}, readings)
	if math.Abs(hi-1000) > math.Abs(lo-1000) {
		t.Fatalf("higher power worse: k=4 -> %v, k=16 -> %v", lo, hi)
	}
}

func TestMaxToleratesUnderflow(t *testing.T) {
	// Readings far below Normal contribute ~0, which cannot hurt a max.
	readings := []int64{0, 1, 2, 1200}
	got := run(t, SpecFor(Max), readings)
	if got < 1200*0.999 || got > 1200*1.25 {
		t.Fatalf("max with underflowing readings = %v", got)
	}
}

func TestMinMaxDomainErrors(t *testing.T) {
	spec := SpecFor(Max)
	if _, err := spec.Contribution(-5, 0); err == nil {
		t.Fatal("negative reading accepted for max")
	}
	if _, err := spec.Contribution(1<<20, 0); err == nil {
		t.Fatal("reading above Normal accepted for max")
	}
	bad := Spec{Kind: Max, Power: 0, Normal: 4096}
	if _, err := bad.Contribution(10, 0); err == nil {
		t.Fatal("zero power accepted")
	}
	mn := SpecFor(Min)
	if mn.MinFloor() <= 0 {
		t.Fatalf("MinFloor = %d", mn.MinFloor())
	}
	if _, err := mn.Contribution(mn.MinFloor()-1, 0); err == nil {
		t.Fatal("reading below MinFloor accepted for min")
	}
	if _, err := mn.Contribution(mn.MinFloor(), 0); err != nil {
		t.Fatalf("reading at MinFloor rejected: %v", err)
	}
}

func TestVarianceOverflowGuard(t *testing.T) {
	spec := SpecFor(Variance)
	if _, err := spec.Contribution(1<<40, 0); err == nil {
		t.Fatal("r² overflow not caught")
	}
}

func TestFinalizeErrors(t *testing.T) {
	if _, err := SpecFor(Average).Finalize([]int64{10}, 0); err == nil {
		t.Fatal("average over zero count accepted")
	}
	if _, err := SpecFor(Variance).Finalize([]int64{10}, 1); err == nil {
		t.Fatal("wrong round count accepted")
	}
	if _, err := SpecFor(Max).Finalize([]int64{0}, 1); err == nil {
		t.Fatal("non-positive power sum accepted")
	}
}

func TestRounds(t *testing.T) {
	if SpecFor(Variance).Rounds() != 2 {
		t.Fatal("variance rounds != 2")
	}
	for _, k := range []Kind{Sum, Count, Average, Min, Max} {
		if SpecFor(k).Rounds() != 1 {
			t.Fatalf("%v rounds != 1", k)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{Sum: "sum", Count: "count", Average: "average", Variance: "variance", Min: "min", Max: "max", Kind(99): "Kind(99)"} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}
