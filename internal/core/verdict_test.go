package core

import (
	"math"
	"slices"
	"testing"

	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/tree"
)

func TestMajorityVerdictUnit(t *testing.T) {
	cases := []struct {
		totals   []int64
		th       int64
		accepted bool
		value    int64
		outliers []int
	}{
		{[]int64{100, 100, 100}, 5, true, 100, nil},
		{[]int64{100, 103, 600}, 5, true, 100, []int{2}},
		{[]int64{100, 600, 600}, 5, true, 600, []int{0}}, // colluding majority
		{[]int64{100, 300, 600}, 5, false, 100, []int{1, 2}},
		{[]int64{100, 104}, 5, true, 100, nil},
		{[]int64{100, 110}, 5, false, 100, []int{1}},
		{[]int64{104, 100}, 5, true, 104, nil}, // the value is tree 0's, not the smallest
		// Overlapping largest clusters {0, 5} and {5, 10}: the lowest
		// sorted window wins.
		{[]int64{0, 5, 10}, 5, true, 0, []int{2}},
		{[]int64{10, 5, 0}, 5, true, 5, []int{0}},
		// Differences beyond int64 saturate instead of wrapping.
		{[]int64{math.MinInt64, math.MaxInt64}, 5, false, math.MinInt64, []int{1}},
		{[]int64{math.MinInt64, math.MaxInt64}, math.MaxInt64, true, math.MinInt64, nil},
	}
	for i, c := range cases {
		accepted, value, outliers := majority(c.totals, c.th)
		if accepted != c.accepted || value != c.value || !slices.Equal(outliers.Trees(), c.outliers) {
			t.Errorf("case %d %v th=%d: accepted %v value %d outliers %v, want %v %d %v",
				i, c.totals, c.th, accepted, value, outliers.Trees(), c.accepted, c.value, c.outliers)
		}
	}
	totals := []int64{3, 900, 1, 2, 900, 0, 4, 901}
	if a := testing.AllocsPerRun(100, func() { majority(totals, 5) }); a != 0 {
		t.Fatalf("majority allocates %v times per call", a)
	}
}

func TestMajorityVerdictProperties(t *testing.T) {
	r := rng.New(71)
	for trial := 0; trial < 2000; trial++ {
		m := r.Intn(tree.MaxTrees-1) + 2
		th := int64(r.Intn(10))
		totals := make([]int64, m)
		for i := range totals {
			totals[i] = int64(r.Intn(2000)) - 1000
		}
		if err := checkMajority(totals, th); err != "" {
			t.Fatalf("trial %d, totals %v, th %d: %s", trial, totals, th, err)
		}
	}
}

// FuzzMajority checks the verdict against a brute-force search over all
// 2^m subsets of the trees, and at m = 2 against the paper's check.
func FuzzMajority(f *testing.F) {
	f.Add(uint8(1), int64(5), int64(0), int64(5), int64(10), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Add(uint8(0), int64(5), int64(100), int64(104), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Add(uint8(6), int64(0), int64(7), int64(7), int64(-3), int64(7), int64(2), int64(2), int64(9), int64(2))
	f.Add(uint8(0), int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, mRaw uint8, th int64, t0, t1, t2, t3, t4, t5, t6, t7 int64) {
		m := 2 + int(mRaw)%(tree.MaxTrees-1)
		if th < 0 {
			th = ^th // Config.Validate rejects a negative Th
		}
		totals := []int64{t0, t1, t2, t3, t4, t5, t6, t7}[:m]
		if err := checkMajority(totals, th); err != "" {
			t.Fatalf("totals %v, th %d: %s", totals, th, err)
		}
		if m == 2 {
			accepted, value, _ := majority(totals, th)
			o := RoundOutcome{Red: t0, Blue: t1}
			if accepted != (o.Diff() <= th) {
				t.Fatalf("totals %v, th %d: accepted %v, but Diff %d", totals, th, accepted, o.Diff())
			}
			if accepted && value != t0 {
				t.Fatalf("totals %v, th %d: accepted value %d, want tree 0's", totals, th, value)
			}
		}
	})
}

// agreeRef is the reference pairwise agreement: the exact |a − b| is at
// most th. A difference beyond int64 saturates at math.MaxInt64, so at
// th = math.MaxInt64 every pair agrees.
func agreeRef(a, b, th int64) bool {
	if a > b {
		a, b = b, a
	}
	return uint64(b)-uint64(a) <= uint64(th) || th == math.MaxInt64
}

// checkMajority compares majority's verdict on totals with a brute-force
// search over every subset of the trees, returning a description of the
// first disagreement or "".
func checkMajority(totals []int64, th int64) string {
	m := len(totals)
	accepted, value, outliers := majority(totals, th)
	all := TreeSet(uint16(1)<<m - 1)
	if outliers&^all != 0 {
		return "outliers name trees beyond m"
	}
	cluster := all &^ outliers
	agrees := func(s TreeSet) bool {
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				if s.Has(i) && s.Has(j) && !agreeRef(totals[i], totals[j], th) {
					return false
				}
			}
		}
		return true
	}
	// low is the smallest total in s.
	low := func(s TreeSet) int64 {
		v := int64(math.MaxInt64)
		for _, t := range s.Trees() {
			v = min(v, totals[t])
		}
		return v
	}
	best, bestLow := 0, int64(math.MaxInt64)
	for i := 1; i <= int(all); i++ {
		s := TreeSet(i)
		if !agrees(s) {
			continue
		}
		if n := s.Len(); n > best {
			best, bestLow = n, low(s)
		} else if n == best {
			bestLow = min(bestLow, low(s))
		}
	}
	switch {
	case !agrees(cluster):
		return "cluster does not agree pairwise"
	case cluster.Len() != best:
		return "cluster is not a largest agreeing set"
	case low(cluster) != bestLow:
		return "cluster is not the lowest sorted window among the largest"
	case accepted != (2*best > m):
		return "accepted is not a strict majority"
	case value != totals[cluster.Trees()[0]]:
		return "value is not the lowest-index cluster tree's total"
	}
	return ""
}
