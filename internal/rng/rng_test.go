package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependentOfParentConsumption(t *testing.T) {
	a := New(7)
	b := New(7)
	// Consume from b but not a: children must still agree because Split
	// does not depend on how much the parent consumed... it does depend on
	// current state, so split FIRST, then consume.
	ca := a.Split(3)
	cb := b.Split(3)
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatalf("split children with same lineage diverged at %d", i)
		}
	}
}

func TestSplitChildrenDiffer(t *testing.T) {
	r := New(7)
	a := r.Split(1)
	b := r.Split(2)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("children with different labels look identical")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split(5)
	_ = a.Split(6)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced parent state")
		}
	}
}

// TestDeriveIsSplitByValue pins Derive to Split over many labels, and
// pins it off the heap: a derived child held in a local allocates nothing.
func TestDeriveIsSplitByValue(t *testing.T) {
	r := New(2024)
	labels := []uint64{0, 1, 2, 3, 1 << 32, 1<<64 - 1}
	for l := uint64(4); l < 2000; l += 7 {
		labels = append(labels, l)
	}
	for _, l := range labels {
		d, s := r.Derive(l), r.Split(l)
		if d != *s {
			t.Fatalf("Derive(%d) = %v, *Split(%d) = %v", l, d, l, *s)
		}
		r.Uint64() // a different parent state for the next label
	}
	// The first draw of a few children of New(2024), as derived before
	// Derive existed: every seeded experiment depends on them.
	golden := map[uint64]uint64{1: 0x2eb1e6913f663e91, 2: 0xdbc359186b618fa, 3: 0x7e54eb94592484bf, 1<<64 - 1: 0x2ff1098f2326ac74}
	root := New(2024)
	for l, want := range golden {
		c := root.Derive(l)
		if got := c.Uint64(); got != want {
			t.Fatalf("New(2024).Derive(%d) drew %#x first, want %#x", l, got, want)
		}
	}
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		c := r.Derive(sink)
		sink ^= c.Uint64()
	}); n != 0 {
		t.Fatalf("Derive allocates %v times, want 0", n)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const buckets, n = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	for b, c := range counts {
		expect := float64(n) / buckets
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Fatalf("bucket %d count %d deviates from %v", b, c, expect)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(13)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestInt64n(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		v := r.Int64n(1 << 40)
		if v < 0 || v >= 1<<40 {
			t.Fatalf("Int64n out of range: %d", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(19)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", p)
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(37)
	if err := quick.Check(func(a, b uint8) bool {
		n := int(a%50) + 1
		k := int(b) % (n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFullRange(t *testing.T) {
	r := New(41)
	s := r.Sample(5, 5)
	seen := map[int]bool{}
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Sample(5,5) not a permutation: %v", s)
	}
}

func TestSampleUniformity(t *testing.T) {
	// Each element of [0,10) should appear in a Sample(10,3) with
	// probability 3/10.
	r := New(43)
	const trials = 30000
	counts := make([]int, 10)
	for i := 0; i < trials; i++ {
		for _, v := range r.Sample(10, 3) {
			counts[v]++
		}
	}
	for v, c := range counts {
		expect := trials * 3 / 10
		if math.Abs(float64(c-expect)) > 6*math.Sqrt(float64(expect)) {
			t.Fatalf("element %d drawn %d times, expected about %d", v, c, expect)
		}
	}
}

func TestSplitPathChainsSplit(t *testing.T) {
	root := New(7)
	want := root.Split(3).Split(1).Split(4).Uint64()
	if got := root.SplitPath(3, 1, 4).Uint64(); got != want {
		t.Fatalf("SplitPath(3,1,4) = %d, want chained Split %d", got, want)
	}
	if root.SplitPath() != root {
		t.Fatal("SplitPath() did not return the receiver")
	}
}

func TestSplitPathOrderMatters(t *testing.T) {
	// Hierarchical paths must not collide across levels the way flat
	// seed arithmetic does: (1,2) and (2,1) are distinct leaves.
	root := New(7)
	a := root.SplitPath(1, 2).Uint64()
	b := root.SplitPath(2, 1).Uint64()
	if a == b {
		t.Fatal("paths (1,2) and (2,1) collided")
	}
}

func TestSplitStringDistinctAndStable(t *testing.T) {
	root := New(7)
	fig6a := root.SplitString("fig6").Uint64()
	fig6b := root.SplitString("fig6").Uint64()
	fig7 := root.SplitString("fig7").Uint64()
	if fig6a != fig6b {
		t.Fatal("SplitString not deterministic")
	}
	if fig6a == fig7 {
		t.Fatal("distinct labels gave the same stream")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
