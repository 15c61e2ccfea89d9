package attack

import (
	"math"
	"testing"

	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/tree"
)

func instance(t *testing.T, nodes int, seed uint64, cfg core.Config) *core.Instance {
	t.Helper()
	net, err := topology.Random(topology.PaperConfig(nodes), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.New(net, cfg, seed+99)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNoCompromiseNoDisclosure(t *testing.T) {
	in := instance(t, 300, 1, core.DefaultConfig())
	e := NewEavesdropper(0, rng.New(2))
	e.Attach(in)
	if _, err := in.RunCount(); err != nil {
		t.Fatal(err)
	}
	if rate := e.DiscloseRate(in.Participants()); rate != 0 {
		t.Fatalf("disclosure rate %v with p_x = 0", rate)
	}
}

func TestFullCompromiseFullDisclosure(t *testing.T) {
	in := instance(t, 300, 3, core.DefaultConfig())
	e := NewEavesdropper(1, rng.New(4))
	e.Attach(in)
	if _, err := in.RunCount(); err != nil {
		t.Fatal(err)
	}
	// With every link compromised, every participant that transmitted a
	// complete set is disclosed. Aggregators additionally need incoming
	// coverage, which p_x = 1 gives.
	if rate := e.DiscloseRate(in.Participants()); rate < 0.999 {
		t.Fatalf("disclosure rate %v with p_x = 1", rate)
	}
}

func TestDiscloseRateIncreasesWithPx(t *testing.T) {
	rate := func(px float64) float64 {
		in := instance(t, 400, 5, core.DefaultConfig())
		e := NewEavesdropper(px, rng.New(6))
		e.Attach(in)
		if _, err := in.RunCount(); err != nil {
			t.Fatal(err)
		}
		return e.DiscloseRate(in.Participants())
	}
	lo, hi := rate(0.05), rate(0.6)
	if lo >= hi {
		t.Fatalf("disclosure did not increase with p_x: %v vs %v", lo, hi)
	}
}

func TestMoreSlicesLowerDisclosure(t *testing.T) {
	rate := func(l int) float64 {
		cfg := core.DefaultConfig()
		cfg.Slices = l
		// Average across several topologies to tame variance.
		var sum float64
		const trials = 5
		for trial := 0; trial < trials; trial++ {
			in := instance(t, 400, 7+uint64(trial), cfg)
			e := NewEavesdropper(0.3, rng.New(8+uint64(trial)))
			e.Attach(in)
			if _, err := in.RunCount(); err != nil {
				t.Fatal(err)
			}
			sum += e.DiscloseRate(in.Participants())
		}
		return sum / trials
	}
	r2, r3 := rate(2), rate(3)
	if r3 >= r2 {
		t.Fatalf("l=3 disclosure %v not below l=2 %v", r3, r2)
	}
}

func TestDisclosureMatchesAnalyticOrder(t *testing.T) {
	// At p_x = 0.1 and l = 2 the analysis (Fig. 5) predicts a disclosure
	// probability of a few percent. Check the empirical rate lands in a
	// loose band around it.
	var sum float64
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		in := instance(t, 400, 20+uint64(trial), core.DefaultConfig())
		e := NewEavesdropper(0.1, rng.New(30+uint64(trial)))
		e.Attach(in)
		if _, err := in.RunCount(); err != nil {
			t.Fatal(err)
		}
		sum += e.DiscloseRate(in.Participants())
	}
	got := sum / trials
	if got < 0.001 || got > 0.15 {
		t.Fatalf("empirical P_disclose(0.1) = %v, expected a few percent", got)
	}
}

func TestLocalizePolluter(t *testing.T) {
	net, err := topology.Random(topology.PaperConfig(200), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	factory := func(disabled []bool, seed uint64) (*core.Instance, error) {
		cfg := core.DefaultConfig()
		cfg.Tree.Adaptive = false // every covered node aggregates
		cfg.Disabled = disabled
		return core.New(net, cfg, seed)
	}
	// Pick an attacker that is well-connected so it aggregates reliably.
	var attacker topology.NodeID
	for i := 1; i < net.N(); i++ {
		if net.Degree(topology.NodeID(i)) >= 8 {
			attacker = topology.NodeID(i)
			break
		}
	}
	res, err := LocalizePolluter(net.N(), factory, attacker, 5000, 77)
	if err != nil {
		t.Fatal(err)
	}
	if res.Suspect != attacker {
		t.Fatalf("localized %d, attacker was %d", res.Suspect, attacker)
	}
	// O(log N): 200 nodes -> 8 bisection rounds.
	if res.Rounds > 10 {
		t.Fatalf("used %d rounds for N=200", res.Rounds)
	}
}

func TestPolluterBehaviorOnlyAggregators(t *testing.T) {
	in := instance(t, 300, 13, core.DefaultConfig())
	var leaf topology.NodeID = topology.None
	for i := 1; i < in.Net.N(); i++ {
		if in.Trees.Tree[i] == tree.NoTree {
			leaf = topology.NodeID(i)
			break
		}
	}
	if leaf == topology.None {
		t.Skip("no leaf")
	}
	PolluterBehavior(in, leaf, 9999)
	res, err := in.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("leaf 'polluter' affected the result")
	}
}

func TestCompromiseRateMatchesPx(t *testing.T) {
	in := instance(t, 300, 15, core.DefaultConfig())
	e := NewEavesdropper(0.25, rng.New(16))
	e.Attach(in)
	if _, err := in.RunCount(); err != nil {
		t.Fatal(err)
	}
	total := len(e.compromised)
	if total < 100 {
		t.Skipf("too few observed links (%d)", total)
	}
	broken := 0
	for _, v := range e.compromised {
		if v {
			broken++
		}
	}
	frac := float64(broken) / float64(total)
	if math.Abs(frac-0.25) > 0.08 {
		t.Fatalf("compromise fraction %v, want ~0.25", frac)
	}
}

// TestDisclosedOnEveryTree drives the eavesdropper's hooks by hand for an
// m = 3 round with l = 2: disclosure counts every tree a node sliced on or
// kept a share for, not only red and blue.
func TestDisclosedOnEveryTree(t *testing.T) {
	e := NewEavesdropper(0, rng.New(1)) // only the links set below fall
	for _, lk := range []link{{5, 20}, {5, 21}, {6, 12}, {6, 22}, {7, 23}, {9, 7}} {
		e.compromised[lk] = true
	}
	var in core.Instance
	e.Attach(&in)
	slices := func(src topology.NodeID, targets ...topology.NodeID) {
		for i, dst := range targets {
			in.OnSlice(src, dst, packet.TreeColor(i/2), 1)
		}
	}
	// Node 5's tree-2 share set is fully compromised; trees 0 and 1 are not.
	slices(5, 10, 11, 12, 13, 20, 21)
	// Node 6 has one compromised link on trees 1 and 2: no complete tree.
	slices(6, 10, 11, 12, 13, 22, 24)
	// Node 7 aggregates on tree 2: it keeps one share and sends the other;
	// with that slice and every slice it received compromised, the kept
	// share follows from its overheard assembled value.
	slices(7, 10, 11, 12, 13)
	in.OnSlice(7, 23, packet.TreeColor(2), 1)
	in.OnLocalShare(7, packet.TreeColor(2), 1)
	in.OnSlice(9, 7, packet.TreeColor(2), 1)
	for id, want := range map[topology.NodeID]bool{5: true, 6: false, 7: true} {
		if got := e.Disclosed(id); got != want {
			t.Errorf("node %d: disclosed %v, want %v", id, got, want)
		}
	}
	// An uncompromised incoming slice hides node 7's kept share.
	in.OnSlice(8, 7, packet.TreeColor(2), 1)
	if e.Disclosed(7) {
		t.Error("node 7 disclosed with an incoming slice the adversary could not open")
	}
}
