// Package slicing implements the data slicing and assembling technique of
// Phase II (Section III-C of the paper).
//
// A node hides its private reading d(i) by splitting it into l additive
// shares, independently for each tree: l shares go to red aggregators and l
// to blue aggregators (l to each tree when there are m of them) in its
// one-hop neighborhood, including itself when it is an aggregator — that
// share never touches the air. Shares are uniform over the full 64-bit
// ring, so any strict subset of a reading's shares is statistically
// independent of the reading; only the complete per-tree set sums back to
// d(i) (mod 2^64), which is exact in two's-complement arithmetic.
package slicing

import (
	"fmt"

	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// Split returns l additive shares of value: uniform random int64s whose
// wrapping sum equals value. l must be at least 1.
func Split(value int64, l int, r *rng.Stream) []int64 {
	if l < 1 {
		panic(fmt.Sprintf("slicing: Split with l = %d", l))
	}
	return SplitAppend(make([]int64, 0, l), value, l, r)
}

// SplitAppend appends l additive shares of value to dst and returns the
// extended slice. It consumes the same draws and yields the same shares as
// Split, without the per-call allocation.
func SplitAppend(dst []int64, value int64, l int, r *rng.Stream) []int64 {
	if l < 1 {
		panic(fmt.Sprintf("slicing: Split with l = %d", l))
	}
	var acc int64
	for i := 0; i < l-1; i++ {
		s := int64(r.Uint64()) // uniform over the whole ring
		dst = append(dst, s)
		acc += s // wrapping
	}
	return append(dst, value-acc) // wrapping
}

// SplitBounded returns l additive shares of value whose first l-1 entries
// are uniform in [-B, B] with B = spread·max(1, |value|); the last share
// is value minus the rest. Bounded shares trade perfect secrecy (a share
// leaks the magnitude scale of the reading) for graceful degradation: a
// lost share perturbs the aggregate by O(spread·|value|) instead of
// randomizing it across the whole 64-bit ring — the behaviour the paper's
// Figure 6 exhibits, where tree totals stay within a small threshold of
// each other despite channel losses. Use Split for full-ring shares when
// the transport is loss-free.
func SplitBounded(value int64, l int, spread int64, r *rng.Stream) []int64 {
	if l < 1 {
		panic(fmt.Sprintf("slicing: SplitBounded with l = %d", l))
	}
	if spread < 1 {
		panic(fmt.Sprintf("slicing: SplitBounded with spread = %d", spread))
	}
	mag := value
	if mag < 0 {
		mag = -mag
	}
	if mag < 1 {
		mag = 1
	}
	bound := spread * mag
	shares := make([]int64, l)
	var acc int64
	for i := 0; i < l-1; i++ {
		s := r.Int64n(2*bound+1) - bound
		shares[i] = s
		acc += s
	}
	shares[l-1] = value - acc
	return shares
}

// SplitBoundedAppend appends l bounded shares of value to dst and returns
// the extended slice — SplitBounded's into-buffer form, with identical
// draws and shares.
func SplitBoundedAppend(dst []int64, value int64, l int, spread int64, r *rng.Stream) []int64 {
	if l < 1 {
		panic(fmt.Sprintf("slicing: SplitBounded with l = %d", l))
	}
	if spread < 1 {
		panic(fmt.Sprintf("slicing: SplitBounded with spread = %d", spread))
	}
	mag := value
	if mag < 0 {
		mag = -mag
	}
	if mag < 1 {
		mag = 1
	}
	bound := spread * mag
	var acc int64
	for i := 0; i < l-1; i++ {
		s := r.Int64n(2*bound+1) - bound
		dst = append(dst, s)
		acc += s
	}
	return append(dst, value-acc)
}

// Combine returns the wrapping sum of shares — the inverse of Split.
func Combine(shares []int64) int64 {
	var acc int64
	for _, s := range shares {
		acc += s
	}
	return acc
}

// Targets is the outcome of slice-target selection for one node: the
// aggregators that will receive its shares, per tree (Trees[t] lists tree
// t's targets). An aggregator's first target on its own tree is itself:
// that share is kept locally and never transmitted.
type Targets struct {
	Trees [][]topology.NodeID
}

// Choose selects l slice targets per tree for node id from the aggregator
// neighborhoods discovered in Phase I (cands[t] lists the tree-t
// aggregators id heard; they must not contain id itself), per Section
// III-C.1: an aggregator always selects itself plus l-1 others of its own
// tree. own is the tree id aggregates on, or any index outside cands for a
// node that aggregates on none. It reports false when the neighborhoods
// cannot support l slices per tree; such a node does not participate (loss
// factor (b) of Section IV-B.3) and no random draw is consumed.
//
// The own tree is drawn first, then the others in index order. t.Trees is
// truncated and refilled in place, so a node's Targets can be re-selected
// every round with no allocation once its slices have grown.
func (t *Targets) Choose(id topology.NodeID, own int, cands [][]topology.NodeID, l int, r *rng.Stream) bool {
	if l < 1 {
		panic(fmt.Sprintf("slicing: Choose with l = %d", l))
	}
	m := len(cands)
	hasOwn := own >= 0 && own < m
	for tr, c := range cands {
		need := l
		if tr == own {
			need = l - 1
		}
		if len(c) < need {
			return false
		}
	}
	if cap(t.Trees) < m {
		t.Trees = append(t.Trees[:cap(t.Trees)], make([][]topology.NodeID, m-cap(t.Trees))...)
	}
	t.Trees = t.Trees[:m]
	for tr := range t.Trees {
		t.Trees[tr] = t.Trees[tr][:0]
	}
	if hasOwn {
		t.Trees[own] = append(t.Trees[own], id)
		t.Trees[own] = pickAppend(t.Trees[own], cands[own], l-1, r)
	}
	for tr := range t.Trees {
		if tr != own {
			t.Trees[tr] = pickAppend(t.Trees[tr], cands[tr], l, r)
		}
	}
	return true
}

// pickAppend appends k distinct elements of xs, drawn uniformly at random,
// to dst. Index sampling runs through rng.SampleAppend over a stack buffer
// for the small k the protocol uses, so the common case allocates nothing
// beyond dst's own growth.
func pickAppend(dst []topology.NodeID, xs []topology.NodeID, k int, r *rng.Stream) []topology.NodeID {
	if k == 0 {
		return dst
	}
	var stack [16]int
	var idx []int
	if k <= len(stack) {
		idx = r.SampleAppend(stack[:0], len(xs), k)
	} else {
		idx = r.Sample(len(xs), k)
	}
	for _, j := range idx {
		dst = append(dst, xs[j])
	}
	return dst
}

// Assembler accumulates the slices received by one aggregator during Phase
// II. After the slicing step the assembled total r(j) = Σ_i d_ij is the
// value the aggregator treats as its own reading (Section III-C.2). The
// zero value is empty.
type Assembler struct {
	total int64
}

// Add folds in one received (already decrypted) slice.
func (a *Assembler) Add(share int64) {
	a.total += share // wrapping
}

// Total returns the assembled value r(j).
func (a *Assembler) Total() int64 { return a.total }
