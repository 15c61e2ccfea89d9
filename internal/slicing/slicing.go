// Package slicing implements the data slicing and assembling technique of
// Phase II (Section III-C of the paper).
//
// A node hides its private reading d(i) by splitting it into l additive
// shares, independently for each tree: l shares go to red aggregators and l
// to blue aggregators in its one-hop neighborhood (including itself when it
// is an aggregator — that share never touches the air). Shares are uniform
// over the full 64-bit ring, so any strict subset of a reading's shares is
// statistically independent of the reading; only the complete per-tree set
// sums back to d(i) (mod 2^64), which is exact in two's-complement
// arithmetic.
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
// aggregators that will receive its shares, per tree. KeptLocal reports
// whether the first entry of the node's own color is the node itself (that
// share is kept locally and never transmitted).
type Targets struct {
	Red       []topology.NodeID
	Blue      []topology.NodeID
	KeptLocal bool
}

// Transmissions returns the number of radio sends the node performs in the
// slicing step: 2l normally, 2l-1 when one share stays local — the paper's
// "each node takes 2l-1 transmissions" counts the local share as saved.
func (t Targets) Transmissions() int {
	n := len(t.Red) + len(t.Blue)
	if t.KeptLocal {
		n--
	}
	return n
}

// ChooseTargets selects l red and l blue slice targets for node id from the
// aggregator neighborhoods discovered in Phase I, per Section III-C.1: an
// aggregator always selects itself plus l-1 others of its own color. ok is
// false when the neighborhoods cannot support l slices per tree; such a
// node does not participate (loss factor (b) of Section IV-B.3).
//
// selfColorRed/selfColorBlue report the node's own role; at most one may be
// true. The candidate lists must not contain id itself.
func ChooseTargets(id topology.NodeID, selfRed, selfBlue bool, redNbrs, blueNbrs []topology.NodeID, l int, r *rng.Stream) (Targets, bool) {
	var t Targets
	if !t.Choose(id, selfRed, selfBlue, redNbrs, blueNbrs, l, r) {
		return Targets{}, false
	}
	return t, true
}

// Choose is ChooseTargets writing into t's existing backing arrays: Red and
// Blue are truncated and refilled, so a node's Targets can be re-selected
// every round with no allocation once the slices have grown to l entries.
// It consumes exactly the same random draws as ChooseTargets (none at all
// when the neighborhoods are too small) and fills t with the same targets
// in the same order, so the two are interchangeable mid-protocol.
func (t *Targets) Choose(id topology.NodeID, selfRed, selfBlue bool, redNbrs, blueNbrs []topology.NodeID, l int, r *rng.Stream) bool {
	if l < 1 {
		panic(fmt.Sprintf("slicing: ChooseTargets with l = %d", l))
	}
	if selfRed && selfBlue {
		panic("slicing: node cannot be on both trees")
	}
	t.Red = t.Red[:0]
	t.Blue = t.Blue[:0]
	t.KeptLocal = false
	switch {
	case selfRed:
		if len(redNbrs) < l-1 || len(blueNbrs) < l {
			return false
		}
		t.Red = append(t.Red, id)
		t.Red = pickAppend(t.Red, redNbrs, l-1, r)
		t.Blue = pickAppend(t.Blue, blueNbrs, l, r)
		t.KeptLocal = true
	case selfBlue:
		if len(blueNbrs) < l-1 || len(redNbrs) < l {
			return false
		}
		t.Blue = append(t.Blue, id)
		t.Blue = pickAppend(t.Blue, blueNbrs, l-1, r)
		t.Red = pickAppend(t.Red, redNbrs, l, r)
		t.KeptLocal = true
	default:
		if len(redNbrs) < l || len(blueNbrs) < l {
			return false
		}
		t.Red = pickAppend(t.Red, redNbrs, l, r)
		t.Blue = pickAppend(t.Blue, blueNbrs, l, r)
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
// value the aggregator treats as its own reading (Section III-C.2).
type Assembler struct {
	total    int64
	received int
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler { return &Assembler{} }

// Reset clears the assembler in place so it can be reused for another
// round.
func (a *Assembler) Reset() { *a = Assembler{} }

// Add folds in one received (already decrypted) slice.
func (a *Assembler) Add(share int64) {
	a.total += share // wrapping
	a.received++
}

// Total returns the assembled value r(j).
func (a *Assembler) Total() int64 { return a.total }

// Received returns the number of slices folded in.
func (a *Assembler) Received() int { return a.received }
