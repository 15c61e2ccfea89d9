package core

import (
	"math"
	"math/bits"

	"github.com/ipda-sim/ipda/internal/tree"
)

// TreeSet is a set of tree indices: bit t stands for tree t.
type TreeSet uint8

// A TreeSet must hold every tree a Forest may have.
var _ [8 - tree.MaxTrees]struct{}

// Has reports whether tree t is in the set.
func (s TreeSet) Has(t int) bool { return s&(1<<t) != 0 }

// Len returns the number of trees in the set.
func (s TreeSet) Len() int { return bits.OnesCount8(uint8(s)) }

// Trees returns the set's tree indices in ascending order.
func (s TreeSet) Trees() []int {
	var out []int
	for t := 0; t < tree.MaxTrees; t++ {
		if s.Has(t) {
			out = append(out, t)
		}
	}
	return out
}

// spread returns |a − b|, saturating at math.MaxInt64 where the true
// difference does not fit an int64.
func spread(a, b int64) int64 {
	if a > b {
		a, b = b, a
	}
	d := uint64(b) - uint64(a) // exact: b − a lies in [0, 2^64)
	if d > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(d)
}

// majority is the base station's verdict over one round's tree totals, the
// same rule for every tree count m = len(totals) ≤ tree.MaxTrees. Two
// trees agree when their totals lie within th of each other (the paper's
// |S_b − S_r| ≤ Th, Sec. III-D). The majority cluster is a largest set of
// trees that pairwise agree, and the round is accepted when it holds a
// strict majority of the m trees (the m-tree extension of Sec. III-B);
// outliers are the trees outside it. The value is the total of the
// lowest-index tree in the cluster.
//
// A pairwise-agreeing set is a window of the totals in sorted order whose
// spread is at most th, so the search slides a window over the sorted
// order. When several largest windows overlap — {0, 5, 10} at th = 5 holds
// both {0, 5} and {5, 10} — the lowest-sorted one wins: there the cluster
// is trees 0 and 1, the value tree 0's total, and tree 2 the outlier.
//
// At m = 2 the cluster holds both trees exactly when |t₁ − t₀| ≤ th, so
// the verdict is the paper's check and an accepted value is tree 0's (red)
// total. majority does not allocate.
func majority(totals []int64, th int64) (accepted bool, value int64, outliers TreeSet) {
	m := len(totals)
	// Insertion sort of the tree indices by total: stable, and m is tiny.
	var idx [tree.MaxTrees]uint8
	for i := range m {
		j := i
		for ; j > 0 && totals[idx[j-1]] > totals[i]; j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = uint8(i)
	}
	bestLo, bestHi, hi := 0, 0, 0
	for lo := range m {
		hi = max(hi, lo)
		for hi+1 < m && spread(totals[idx[lo]], totals[idx[hi+1]]) <= th {
			hi++
		}
		if hi-lo > bestHi-bestLo {
			bestLo, bestHi = lo, hi
		}
	}
	var cluster TreeSet
	for _, t := range idx[bestLo : bestHi+1] {
		cluster |= 1 << t
	}
	all := TreeSet(uint16(1)<<m - 1)
	return 2*cluster.Len() > m, totals[bits.TrailingZeros8(uint8(cluster))], all &^ cluster
}
