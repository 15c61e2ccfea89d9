package slicing

import (
	"testing"
	"testing/quick"

	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

func TestSplitCombineProperty(t *testing.T) {
	r := rng.New(1)
	if err := quick.Check(func(value int64, lRaw uint8) bool {
		l := int(lRaw%5) + 1
		// Appending keeps what dst held.
		shares := SplitAppend([]int64{7}, value, l, r)
		return len(shares) == l+1 && shares[0] == 7 && Combine(shares[1:]) == value
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitSingleShare(t *testing.T) {
	shares := SplitAppend(nil, 42, 1, rng.New(2))
	if len(shares) != 1 || shares[0] != 42 {
		t.Fatalf("SplitAppend(nil, 42, 1) = %v", shares)
	}
}

func TestSplitExtremes(t *testing.T) {
	r := rng.New(3)
	for _, v := range []int64{0, 1, -1, 1<<63 - 1, -1 << 63} {
		for _, l := range []int{1, 2, 3, 7} {
			if got := Combine(SplitAppend(nil, v, l, r)); got != v {
				t.Fatalf("Split/Combine(%d, %d) = %d", v, l, got)
			}
		}
	}
}

func TestSplitSharesLookUniform(t *testing.T) {
	// A single share from a 2-way split of a constant must not leak the
	// constant: mean of first shares over many splits should be near the
	// ring average (i.e. huge spread, sign split ~50/50).
	r := rng.New(5)
	pos := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		s := SplitAppend(nil, 1000, 2, r)
		if s[0] >= 0 {
			pos++
		}
	}
	frac := float64(pos) / trials
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("first-share sign fraction %v; shares not uniform", frac)
	}
}

func TestSplitBoundedSumsExactly(t *testing.T) {
	r := rng.New(31)
	if err := quick.Check(func(raw int32, lRaw, sRaw uint8) bool {
		value := int64(raw)
		l := int(lRaw%5) + 1
		spread := int64(sRaw%8) + 1
		shares := SplitBoundedAppend([]int64{7}, value, l, spread, r)
		return len(shares) == l+1 && shares[0] == 7 && Combine(shares[1:]) == value
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitBoundedSharesBounded(t *testing.T) {
	r := rng.New(37)
	const value, spread = 100, 4
	for trial := 0; trial < 1000; trial++ {
		shares := SplitBoundedAppend(nil, value, 3, spread, r)
		for i, s := range shares[:2] { // all but the last are bounded
			if s < -spread*value || s > spread*value {
				t.Fatalf("share %d = %d outside ±%d", i, s, spread*value)
			}
		}
		// The last share is bounded by |value| + (l-1)·spread·|value|.
		last := shares[2]
		if last < -(1+2*spread)*value || last > (1+2*spread)*value {
			t.Fatalf("last share %d out of range", last)
		}
	}
}

func TestSplitBoundedZeroValue(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 100; trial++ {
		shares := SplitBoundedAppend(nil, 0, 2, 4, r)
		if Combine(shares) != 0 {
			t.Fatal("zero value not preserved")
		}
		// Bound for value 0 uses magnitude 1.
		if shares[0] < -4 || shares[0] > 4 {
			t.Fatalf("zero-value share %d outside ±4", shares[0])
		}
	}
}

func TestSplitBoundedHidesValueSign(t *testing.T) {
	// With spread 4, the first share of +1 and of -1 should look alike
	// enough that sign recovery from one share is barely better than a
	// coin flip.
	r := rng.New(43)
	correct := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		value := int64(1)
		if i%2 == 0 {
			value = -1
		}
		s := SplitBoundedAppend(nil, value, 2, 4, r)[0]
		guess := int64(1)
		if s < 0 {
			guess = -1
		}
		if guess == value {
			correct++
		}
	}
	acc := float64(correct) / trials
	if acc > 0.58 {
		t.Fatalf("single bounded share reveals sign with accuracy %v", acc)
	}
}

func TestSplitBoundedPanics(t *testing.T) {
	for _, c := range []struct {
		l      int
		spread int64
	}{{0, 4}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SplitBoundedAppend(l=%d, spread=%d) did not panic", c.l, c.spread)
				}
			}()
			SplitBoundedAppend(nil, 1, c.l, c.spread, rng.New(1))
		}()
	}
}

func TestSplitPanicsOnBadL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SplitAppend(nil, 1, 0, rng.New(1))
}

func ids(xs ...int) []topology.NodeID {
	out := make([]topology.NodeID, len(xs))
	for i, x := range xs {
		out[i] = topology.NodeID(x)
	}
	return out
}

// choose runs Targets.Choose over a red and a blue neighborhood.
func choose(id topology.NodeID, own int, red, blue []topology.NodeID, l int, r *rng.Stream) (Targets, bool) {
	var tg Targets
	ok := tg.Choose(id, own, [][]topology.NodeID{red, blue}, l, r)
	return tg, ok
}

// transmissions counts the radio sends a node performs in the slicing
// step: m·l, less the share an aggregator keeps local. With two trees that
// is the paper's "each node takes 2l-1 transmissions".
func transmissions(tg Targets, id topology.NodeID) int {
	n := 0
	for _, ts := range tg.Trees {
		for _, x := range ts {
			if x != id {
				n++
			}
		}
	}
	return n
}

func TestChooseTargetsLeaf(t *testing.T) {
	r := rng.New(7)
	tg, ok := choose(5, -1, ids(1, 2, 3), ids(4, 6, 7), 2, r)
	if !ok {
		t.Fatal("leaf with enough neighbors rejected")
	}
	if len(tg.Trees[0]) != 2 || len(tg.Trees[1]) != 2 {
		t.Fatalf("targets %+v", tg)
	}
	if n := transmissions(tg, 5); n != 4 {
		t.Fatalf("leaf transmissions = %d, want 2l = 4", n)
	}
}

func TestChooseTargetsRedAggregator(t *testing.T) {
	r := rng.New(9)
	tg, ok := choose(5, 0, ids(1, 2), ids(4, 6), 2, r)
	if !ok {
		t.Fatal("red aggregator rejected")
	}
	if tg.Trees[0][0] != 5 {
		t.Fatalf("aggregator must select itself first: %v", tg.Trees[0])
	}
	// Paper: 2l-1 transmissions for l=2 -> 3.
	if n := transmissions(tg, 5); n != 3 {
		t.Fatalf("transmissions = %d, want 3", n)
	}
}

func TestChooseTargetsBlueAggregator(t *testing.T) {
	r := rng.New(11)
	tg, ok := choose(9, 1, ids(1, 2, 3), ids(4), 2, r)
	if !ok {
		t.Fatal("blue aggregator rejected")
	}
	if tg.Trees[1][0] != 9 || len(tg.Trees[1]) != 2 || len(tg.Trees[0]) != 2 {
		t.Fatalf("targets %+v", tg)
	}
}

func TestChooseTargetsInsufficientNeighbors(t *testing.T) {
	r := rng.New(13)
	if _, ok := choose(5, -1, ids(1), ids(2, 3), 2, r); ok {
		t.Fatal("leaf with 1 red neighbor accepted for l=2")
	}
	if _, ok := choose(5, 0, ids(1), ids(2), 3, r); ok {
		t.Fatal("red aggregator without l-1=2 red neighbors accepted")
	}
	// Aggregator with zero same-color neighbors but l=1 is fine: it keeps
	// its whole same-color share and sends one to the other tree.
	if _, ok := choose(5, 0, nil, ids(2), 1, r); !ok {
		t.Fatal("l=1 aggregator with one opposite neighbor rejected")
	}
}

func TestChooseTargetsDistinct(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 200; trial++ {
		tg, ok := choose(5, 0, ids(1, 2, 3, 4), ids(6, 7, 8), 3, r)
		if !ok {
			t.Fatal("rejected")
		}
		seen := map[topology.NodeID]bool{}
		for _, x := range append(append([]topology.NodeID{}, tg.Trees[0]...), tg.Trees[1]...) {
			if seen[x] {
				t.Fatalf("duplicate target %d in %+v", x, tg)
			}
			seen[x] = true
		}
	}
}

func TestAssembler(t *testing.T) {
	var a Assembler
	a.Add(10)
	a.Add(-3)
	a.Add(5)
	if a.Total() != 12 {
		t.Fatalf("Total = %d", a.Total())
	}
}

func TestAssemblerWrapping(t *testing.T) {
	var a Assembler
	a.Add(1 << 62)
	a.Add(1 << 62)
	a.Add(1 << 62)
	a.Add(1 << 62)
	if a.Total() != 0 {
		t.Fatalf("wrapping sum = %d, want 0", a.Total())
	}
}

// TestSlicedAggregationInvariant checks Equation (4): splitting every
// node's reading and summing all shares per tree yields the true total on
// each tree independently.
func TestSlicedAggregationInvariant(t *testing.T) {
	r := rng.New(23)
	if err := quick.Check(func(readings []int64) bool {
		var trueSum, redSum, blueSum int64
		for _, d := range readings {
			trueSum += d
			for _, s := range SplitAppend(nil, d, 2, r) {
				redSum += s
			}
			for _, s := range SplitAppend(nil, d, 2, r) {
				blueSum += s
			}
		}
		return redSum == trueSum && blueSum == trueSum
	}, nil); err != nil {
		t.Fatal(err)
	}
}
