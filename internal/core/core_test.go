package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/ipda-sim/ipda/internal/aggregate"
	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/fault"
	"github.com/ipda-sim/ipda/internal/linksec"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/qtrace"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/tree"
)

// deploy builds an instance over a fresh paper-style deployment.
func deploy(t *testing.T, nodes int, seed uint64, cfg Config) *Instance {
	t.Helper()
	net, err := topology.Random(topology.PaperConfig(nodes), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(net, cfg, seed+1000)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestCountRoundTreesAgree(t *testing.T) {
	inst := deploy(t, 400, 1, DefaultConfig())
	res, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcomes[0]
	participants := int64(out.Participants)
	if participants < int64(float64(inst.Net.N()-1)*0.85) {
		t.Fatalf("only %d of %d nodes participated", participants, inst.Net.N()-1)
	}
	// The two trees should deliver nearly identical totals (Figure 6).
	if d := out.Diff(); d > 10 {
		t.Fatalf("|Sb-Sr| = %d (red %d, blue %d)", d, out.Red, out.Blue)
	}
	// And both should be near the participant count (COUNT aggregate).
	if math.Abs(float64(out.Red)-float64(participants)) > 0.1*float64(participants) {
		t.Fatalf("red count %d vs participants %d", out.Red, participants)
	}
}

func TestSumMatchesParticipantSum(t *testing.T) {
	inst := deploy(t, 400, 2, DefaultConfig())
	readings := make([]int64, inst.Net.N())
	r := rng.New(42)
	for i := 1; i < len(readings); i++ {
		readings[i] = int64(r.Intn(100))
	}
	res, err := inst.RunSum(readings)
	if err != nil {
		t.Fatal(err)
	}
	// The protocol can only aggregate participants' readings; compute the
	// reachable optimum.
	var expect int64
	for _, id := range inst.Participants() {
		expect += readings[id]
	}
	out := res.Outcomes[0]
	// Loss can only lose whole shares; with the generous windows of the
	// defaults, totals should be within a few percent of expect.
	tol := float64(expect) * 0.1
	if math.Abs(float64(out.Red)-float64(expect)) > tol {
		t.Fatalf("red sum %d vs expected %d", out.Red, expect)
	}
	if math.Abs(float64(out.Blue)-float64(expect)) > tol {
		t.Fatalf("blue sum %d vs expected %d", out.Blue, expect)
	}
}

// TestLossFreeExactness uses a small dense grid where contention is
// negligible: if no frame is lost the totals must be exactly equal on both
// trees and exactly the participant sum (Equations 5 and 6).
func TestLossFreeExactness(t *testing.T) {
	net, err := topology.Grid(5, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SliceWindow = 10 // stretch the window: collisions vanish
	inst, err := New(net, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	readings := make([]int64, net.N())
	for i := range readings {
		readings[i] = int64(i * 3)
	}
	res, err := inst.RunSum(readings)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcomes[0]
	var expect int64
	for _, id := range inst.Participants() {
		expect += readings[id]
	}
	if inst.Medium.Stats().FramesCollided == 0 {
		if out.Red != expect || out.Blue != expect {
			t.Fatalf("loss-free totals: red %d blue %d expect %d", out.Red, out.Blue, expect)
		}
	} else if out.Diff() > 2*out.Diff()+10 {
		t.Fatalf("unexpected divergence despite low load")
	}
	if !res.Accepted {
		t.Fatalf("round rejected without attack: diff %d", out.Diff())
	}
}

func TestAcceptWithoutAttack(t *testing.T) {
	inst := deploy(t, 400, 3, DefaultConfig())
	res, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("no-attack round rejected; diff %d", res.Outcomes[0].Diff())
	}
	if res.Value != float64(res.Outcomes[0].Red) {
		t.Fatalf("finalized value %v vs red sum %d", res.Value, res.Outcomes[0].Red)
	}
}

func TestPollutionDetected(t *testing.T) {
	inst := deploy(t, 400, 4, DefaultConfig())
	// Compromise a red aggregator near the base station (the paper's most
	// serious scenario) and shift the result by +1000.
	var attacker topology.NodeID = topology.None
	for i := 1; i < inst.Net.N(); i++ {
		if inst.Trees.Tree[i] == 0 && inst.Trees.Parent[i] == 0 {
			attacker = topology.NodeID(i)
			break
		}
	}
	if attacker == topology.None {
		for _, a := range inst.Trees.Aggregators(0) {
			attacker = a
			break
		}
	}
	inst.Pollute(attacker, 1000)
	res, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatalf("polluted round accepted: red %d blue %d", res.Outcomes[0].Red, res.Outcomes[0].Blue)
	}
}

func TestPollutionOnBothTreesByIndividualAttackersDetected(t *testing.T) {
	inst := deploy(t, 400, 5, DefaultConfig())
	reds := inst.Trees.Aggregators(0)
	blues := inst.Trees.Aggregators(1)
	if len(reds) == 0 || len(blues) == 0 {
		t.Skip("degenerate trees")
	}
	// Two non-colluding attackers pollute different trees by different
	// amounts; the totals cannot agree (Section IV-A.4).
	inst.Pollute(reds[0], 700)
	inst.Pollute(blues[0], -300)
	res, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("doubly-polluted round accepted")
	}
}

func TestColludingAttackersEvadeDetection(t *testing.T) {
	// Documented limitation (Section VI): attackers that coordinate the
	// same delta on both trees defeat the redundancy check.
	inst := deploy(t, 400, 6, DefaultConfig())
	reds := inst.Trees.Aggregators(0)
	blues := inst.Trees.Aggregators(1)
	if len(reds) == 0 || len(blues) == 0 {
		t.Skip("degenerate trees")
	}
	inst.Pollute(reds[0], 500)
	inst.Pollute(blues[0], 500)
	res, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		// Colluders can still be unlucky (loss noise), but normally the
		// deltas cancel in the comparison.
		t.Logf("colluders detected anyway (diff %d) — acceptable but unusual", res.Outcomes[0].Diff())
	}
}

func TestPolluteZeroRemoves(t *testing.T) {
	inst := deploy(t, 300, 7, DefaultConfig())
	var agg topology.NodeID = topology.None
	for _, a := range inst.Trees.Aggregators(0) {
		agg = a
		break
	}
	if agg == topology.None {
		t.Skip("no red aggregator")
	}
	inst.Pollute(agg, 12345)
	inst.Pollute(agg, 0)
	res, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("removed polluter still pollutes")
	}
}

func TestAverageQuery(t *testing.T) {
	inst := deploy(t, 400, 8, DefaultConfig())
	readings := make([]int64, inst.Net.N())
	for i := range readings {
		readings[i] = 50 // constant readings: average must be exactly 50
	}
	res, err := inst.Run(aggregate.SpecFor(aggregate.Average), readings)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("average round rejected: %+v", res.Outcomes)
	}
	if math.Abs(res.Value-50) > 0.5 {
		t.Fatalf("average = %v, want 50", res.Value)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("average used %d rounds, want 2 (sum + count)", len(res.Outcomes))
	}
}

func TestVarianceQuery(t *testing.T) {
	net, err := topology.Grid(5, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SliceWindow = 10
	inst, err := New(net, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	readings := make([]int64, net.N())
	for i := range readings {
		readings[i] = int64(10 + i%2*20) // values 10 or 30
	}
	res, err := inst.Run(aggregate.SpecFor(aggregate.Variance), readings)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 3 {
		t.Fatalf("variance used %d rounds, want 3", len(res.Outcomes))
	}
	if !res.Accepted {
		t.Skip("loss made variance round diverge; acceptable on contended channels")
	}
	// True population variance of a 50/50 mix of 10 and 30 is 100; loss
	// perturbs it slightly.
	if res.Value < 60 || res.Value > 140 {
		t.Fatalf("variance = %v, want near 100", res.Value)
	}
}

func TestMaxQuery(t *testing.T) {
	net, err := topology.Grid(5, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SliceWindow = 10
	inst, err := New(net, cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	readings := make([]int64, net.N())
	for i := range readings {
		readings[i] = int64(100 + i*10)
	}
	res, err := inst.Run(aggregate.SpecFor(aggregate.Max), readings)
	if err != nil {
		t.Fatal(err)
	}
	trueMax := float64(0)
	for _, id := range inst.Participants() {
		if v := float64(readings[id]); v > trueMax {
			trueMax = v
		}
	}
	if !res.Accepted {
		t.Skip("max round rejected due to loss")
	}
	if res.Value < trueMax*0.95 || res.Value > trueMax*1.35 {
		t.Fatalf("max estimate %v, true %v", res.Value, trueMax)
	}
}

func TestDisabledNodesExcluded(t *testing.T) {
	nodes := 400
	net, err := topology.Random(topology.PaperConfig(nodes), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Disabled = make([]bool, net.N())
	for i := 1; i <= 100; i++ {
		cfg.Disabled[i] = true
	}
	inst, err := New(net, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range inst.Participants() {
		if cfg.Disabled[p] {
			t.Fatalf("disabled node %d participates", p)
		}
	}
	for i := 1; i <= 100; i++ {
		if tr := inst.Trees.Tree[i]; tr >= 0 {
			t.Fatalf("disabled node %d became a tree-%d aggregator", i, tr)
		}
	}
}

func TestRunValidatesReadings(t *testing.T) {
	inst := deploy(t, 200, 13, DefaultConfig())
	if _, err := inst.RunSum(make([]int64, 5)); err == nil {
		t.Fatal("wrong-length readings accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	net, _ := topology.Grid(3, 20, 50)
	bad := DefaultConfig()
	bad.Slices = 0
	if _, err := New(net, bad, 1); err == nil {
		t.Fatal("Slices=0 accepted")
	}
	bad = DefaultConfig()
	bad.Threshold = -1
	if _, err := New(net, bad, 1); err == nil {
		t.Fatal("negative threshold accepted")
	}
	bad = DefaultConfig()
	bad.SliceWindow = 0
	if _, err := New(net, bad, 1); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestMultipleRoundsIndependent(t *testing.T) {
	inst := deploy(t, 300, 14, DefaultConfig())
	a, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	b, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	// Same trees, so participant counts equal; totals close.
	if a.Outcomes[0].Participants != b.Outcomes[0].Participants {
		t.Fatalf("participants changed across rounds: %d vs %d",
			a.Outcomes[0].Participants, b.Outcomes[0].Participants)
	}
	if !a.Accepted || !b.Accepted {
		t.Fatal("clean rounds rejected")
	}
}

// TestRoundStateReuseAcrossRounds pins the zero-alloc round contract: the
// per-round buffers (contribution vector, child accumulators, assemblers)
// are allocated once per instance and then reused in place — including
// across the two additive rounds of an AVERAGE query and across queries.
func TestRoundStateReuseAcrossRounds(t *testing.T) {
	inst := deploy(t, 200, 16, DefaultConfig())
	readings := make([]int64, inst.Net.N())
	for i := range readings {
		readings[i] = 40
	}
	if _, err := inst.Run(aggregate.SpecFor(aggregate.Average), readings); err != nil {
		t.Fatal(err)
	}
	contribs := &inst.contribs[0]
	childSum := &inst.childSum[0]
	asm := &inst.asm[inst.m] // node 1, tree 0
	if _, err := inst.Run(aggregate.SpecFor(aggregate.Average), readings); err != nil {
		t.Fatal(err)
	}
	if &inst.contribs[0] != contribs || &inst.childSum[0] != childSum || &inst.asm[inst.m] != asm {
		t.Fatal("per-round buffers were reallocated across rounds")
	}
	// Warm resets must stay off the allocator entirely.
	if n := testing.AllocsPerRun(50, inst.resetRoundState); n != 0 {
		t.Fatalf("resetRoundState allocates %v per round, want 0", n)
	}
}

// TestRunRoundAllocFree pins the steady-state round at zero heap
// allocations: once the warm-up rounds have grown the event pools and the
// per-round buffers to the round's peak, RunRound reuses them all. The
// count is exact over 50 rounds. AllocsPerRun runs its argument once
// unmeasured, so 70 rounds precede the measured ones: the radio's pool of
// in-flight transmissions last sets a new peak in round 64 at seed 7 and
// in round 70 at seed 2024.
func TestRunRoundAllocFree(t *testing.T) {
	for _, seed := range []uint64{7, 2024} {
		inst := deploy(t, 400, seed, DefaultConfig())
		contribs := make([]int64, inst.Net.N())
		for i := range contribs {
			contribs[i] = 1
		}
		rounds := func(k int) {
			for range k {
				if _, err := inst.RunRound(contribs); err != nil {
					t.Fatal(err)
				}
			}
		}
		rounds(20)
		if n := testing.AllocsPerRun(1, func() { rounds(50) }); n != 0 {
			t.Fatalf("seed %d: 50 rounds allocate %v times, want 0", seed, n)
		}
	}
}

// TestRunCountAllocatesOnlyItsResult pins a warm query at one heap
// allocation, its Result: the outcomes live in the Result, the round sums
// on the stack and COUNT's readings in the instance.
func TestRunCountAllocatesOnlyItsResult(t *testing.T) {
	inst := deploy(t, 400, 7, DefaultConfig())
	query := func() {
		if _, err := inst.RunCount(); err != nil {
			t.Fatal(err)
		}
	}
	for range 100 {
		query()
	}
	if n := testing.AllocsPerRun(1, func() {
		for range 20 {
			query()
		}
	}); n != 20 {
		t.Fatalf("20 RunCount queries allocate %v times, want 20", n)
	}
}

func TestOverheadRatioVsSlices(t *testing.T) {
	// Section IV-A.2: per-round traffic grows roughly like 2l-1 slice
	// messages + 1 aggregate; l=2 rounds should cost notably more than
	// l=1 rounds.
	cfg1 := DefaultConfig()
	cfg1.Slices = 1
	cfg2 := DefaultConfig()
	cfg2.Slices = 2
	i1 := deploy(t, 400, 15, cfg1)
	i2 := deploy(t, 400, 15, cfg2)
	r1, err := i1.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := i2.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	b1 := float64(r1.Outcomes[0].Bytes)
	b2 := float64(r2.Outcomes[0].Bytes)
	ratio := b2 / b1
	// Per-round slice messages: l=1 sends ~1 (leaf: 2, aggregator: 1),
	// l=2 sends ~3-4. Expect a ratio comfortably above 1.5.
	if ratio < 1.3 || ratio > 3.5 {
		t.Fatalf("l=2/l=1 byte ratio %.2f out of expected band", ratio)
	}
}

func TestMultipleBaseStations(t *testing.T) {
	// Three collection points: node 0 (field center) plus two sensors
	// promoted to base stations. Totals must fuse to the same participant
	// count, trees stay disjoint, and the tree depth shrinks (nodes attach
	// to the nearest root).
	net, err := topology.Random(topology.PaperConfig(400), rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(net, DefaultConfig(), 62)
	if err != nil {
		t.Fatal(err)
	}
	multiCfg := DefaultConfig()
	multiCfg.ExtraRoots = []topology.NodeID{50, 200}
	multi, err := New(net, multiCfg, 62)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Trees.Tree[50] != tree.Root || multi.Trees.Tree[200] != tree.Root {
		t.Fatalf("extra roots on trees %d %d, want Root", multi.Trees.Tree[50], multi.Trees.Tree[200])
	}
	res, err := multi.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("multi-sink round rejected: %+v", res.Outcomes[0])
	}
	participants := int64(res.Outcomes[0].Participants)
	if res.Outcomes[0].Red < participants*9/10 || res.Outcomes[0].Red > participants {
		t.Fatalf("fused red total %d vs %d participants", res.Outcomes[0].Red, participants)
	}
	// Extra roots hold no readings.
	for _, p := range multi.Participants() {
		if p == 50 || p == 200 {
			t.Fatal("root listed as participant")
		}
	}
	// Depth benefit: max hop with three sinks at most that with one.
	maxHop := func(in *Instance) uint16 {
		var h uint16
		for i := range in.Trees.Hop {
			if in.Trees.Hop[i] > h {
				h = in.Trees.Hop[i]
			}
		}
		return h
	}
	if maxHop(multi) > maxHop(single) {
		t.Fatalf("multi-sink max hop %d above single-sink %d", maxHop(multi), maxHop(single))
	}
	// Pollution detection still works across fused totals.
	aggs := multi.Trees.Aggregators(0)
	if len(aggs) > 0 {
		multi.Pollute(aggs[0], 800)
		res, err = multi.RunCount()
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			t.Fatal("pollution accepted under multiple sinks")
		}
	}
}

func TestExtraRootValidation(t *testing.T) {
	net, _ := topology.Grid(3, 20, 50)
	cfg := DefaultConfig()
	cfg.ExtraRoots = []topology.NodeID{topology.NodeID(net.N())}
	if _, err := New(net, cfg, 1); err == nil {
		t.Fatal("out-of-range extra root accepted")
	}
	cfg.ExtraRoots = []topology.NodeID{0}
	if _, err := New(net, cfg, 1); err == nil {
		t.Fatal("node 0 as extra root accepted")
	}
	cfg.ExtraRoots = []topology.NodeID{3, 3}
	if _, err := New(net, cfg, 1); err == nil || !strings.Contains(err.Error(), "extra root 3 listed twice") {
		t.Fatalf("duplicate extra root: err = %v", err)
	}
}

func TestRandomPredistKeysEndToEnd(t *testing.T) {
	// iPDA over Eschenauer–Gligor key predistribution: dense rings keep
	// almost every neighbor pair keyed, so the protocol runs essentially
	// as with pairwise keys.
	net, err := topology.Random(topology.PaperConfig(400), rng.New(51))
	if err != nil {
		t.Fatal(err)
	}
	keys, err := linksec.NewRandomPredist(net.N(), 1000, 150, 9, rng.New(52))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Keys = keys
	inst, err := New(net, cfg, 53)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("round rejected under key predistribution: %+v", res.Outcomes[0])
	}
	if res.Outcomes[0].Participants < (net.N()-1)*8/10 {
		t.Fatalf("only %d participants with dense rings", res.Outcomes[0].Participants)
	}
}

func TestSparseKeyRingsShrinkParticipation(t *testing.T) {
	// Tiny rings leave many neighbor pairs keyless; keyedTargets filters
	// them out and participation drops, but totals on both trees stay
	// consistent (equal inputs).
	net, err := topology.Random(topology.PaperConfig(400), rng.New(54))
	if err != nil {
		t.Fatal(err)
	}
	sparseKeys, err := linksec.NewRandomPredist(net.N(), 1000, 35, 9, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Keys = sparseKeys
	sparse, err := New(net, cfg, 56)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := New(net, DefaultConfig(), 56)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sparse.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := dense.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Outcomes[0].Participants >= rd.Outcomes[0].Participants {
		t.Fatalf("sparse rings did not shrink participation: %d vs %d",
			rs.Outcomes[0].Participants, rd.Outcomes[0].Participants)
	}
	if !rs.Accepted {
		t.Fatalf("sparse-ring round rejected: %+v", rs.Outcomes[0])
	}
}

func TestQCompositeKeysEndToEnd(t *testing.T) {
	net, err := topology.Random(topology.PaperConfig(400), rng.New(57))
	if err != nil {
		t.Fatal(err)
	}
	keys, err := linksec.NewQComposite(net.N(), 500, 120, 2, 9, rng.New(58))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Keys = keys
	inst, err := New(net, cfg, 59)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("round rejected under q-composite keys: %+v", res.Outcomes[0])
	}
}

func TestKillAggregatorLosesSubtreeAndTriggersRejection(t *testing.T) {
	inst := deploy(t, 400, 21, DefaultConfig())
	// Kill a red aggregator with children (one whose ID appears as some
	// other aggregator's parent).
	var victim topology.NodeID = topology.None
	for i := 1; i < inst.Net.N(); i++ {
		if inst.Trees.Tree[i] != 0 {
			continue
		}
		for j := 1; j < inst.Net.N(); j++ {
			if inst.Trees.Parent[j] == topology.NodeID(i) {
				victim = topology.NodeID(i)
				break
			}
		}
		if victim != topology.None {
			break
		}
	}
	if victim == topology.None {
		t.Skip("no red aggregator with children")
	}
	inst.Kill(victim)
	res, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	// The red tree lost the victim's whole subtree, so the trees disagree
	// by more than Th and the base station rejects — node failures and
	// attacks are indistinguishable to it (Sec. III-A).
	if res.Accepted {
		t.Fatalf("round accepted despite dead aggregator: red %d blue %d",
			res.Outcomes[0].Red, res.Outcomes[0].Blue)
	}
	// After revival the next round is clean again.
	inst.Revive(victim)
	res, err = inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("round rejected after revival")
	}
}

func TestKillLeafOnlyLosesOneReading(t *testing.T) {
	inst := deploy(t, 400, 22, DefaultConfig())
	base, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	var leaf topology.NodeID = topology.None
	for i := 1; i < inst.Net.N(); i++ {
		if inst.Trees.Tree[i] == tree.NoTree && inst.Trees.CanSlice(topology.NodeID(i), 2) {
			leaf = topology.NodeID(i)
			break
		}
	}
	if leaf == topology.None {
		t.Skip("no participating leaf")
	}
	inst.Kill(leaf)
	res, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("round rejected after one leaf died")
	}
	if res.Outcomes[0].Participants != base.Outcomes[0].Participants-1 {
		t.Fatalf("participants %d, want %d", res.Outcomes[0].Participants, base.Outcomes[0].Participants-1)
	}
}

// TestKillSymmetricLossAndExactRevive pins the mid-query Kill/Revive
// semantics on a loss-free grid: a killed participating leaf's reading
// disappears from BOTH tree totals symmetrically (the trees still agree
// exactly), and Revive restores the pre-kill totals bit for bit.
func TestKillSymmetricLossAndExactRevive(t *testing.T) {
	net, err := topology.Grid(5, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SliceWindow = 20 // stretch the window: collisions vanish
	readings := make([]int64, net.N())
	for i := range readings {
		readings[i] = int64(i*3 + 1)
	}
	// Probe seeds for a sequence where all three rounds stay loss-free;
	// only then are the exactness assertions meaningful.
seeds:
	for seed := uint64(1); seed <= 30; seed++ {
		inst, err := New(net, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		run := func() (RoundOutcome, bool) {
			collided := inst.Medium.Stats().FramesCollided
			res, err := inst.RunSum(readings)
			if err != nil {
				t.Fatal(err)
			}
			return res.Outcomes[0], inst.Medium.Stats().FramesCollided == collided
		}
		var leaf topology.NodeID = topology.None
		for i := 1; i < net.N(); i++ {
			if inst.Trees.Tree[i] == tree.NoTree && inst.Trees.CanSlice(topology.NodeID(i), cfg.Slices) {
				leaf = topology.NodeID(i)
				break
			}
		}
		if leaf == topology.None {
			continue
		}
		before, ok := run()
		if !ok {
			continue seeds
		}
		if before.Red != before.Blue {
			t.Fatalf("seed %d: loss-free baseline trees disagree: red %d blue %d", seed, before.Red, before.Blue)
		}
		inst.Kill(leaf)
		killed, ok := run()
		inst.Revive(leaf)
		if !ok {
			continue seeds
		}
		want := before.Red - readings[leaf]
		if killed.Red != want || killed.Blue != want {
			t.Fatalf("seed %d: killed-leaf totals red %d blue %d, want both %d (lost reading %d symmetrically)",
				seed, killed.Red, killed.Blue, want, readings[leaf])
		}
		after, ok := run()
		if !ok {
			continue seeds
		}
		if after.Red != before.Red || after.Blue != before.Blue {
			t.Fatalf("seed %d: revive did not restore totals: before (%d,%d), after (%d,%d)",
				seed, before.Red, before.Blue, after.Red, after.Blue)
		}
		return
	}
	t.Skip("no seed in [1,30] gave three loss-free rounds")
}

// TestRepairReattachesAroundDeadAggregator compares repair on/off over
// identical deployments and trees: killing a red aggregator with children
// partitions the red tree and gets the round rejected without repair,
// while localized re-attachment keeps the round accepted — and keeps the
// trees disjoint.
func TestRepairReattachesAroundDeadAggregator(t *testing.T) {
	build := func(repair bool) *Instance {
		cfg := DefaultConfig()
		cfg.Repair = repair
		return deploy(t, 400, 21, cfg)
	}
	plain, repaired := build(false), build(true)
	// Same seed, same rng consumption: both instances hold identical trees.
	var victim topology.NodeID = topology.None
	for i := 1; i < plain.Net.N(); i++ {
		if plain.Trees.Tree[i] != 0 {
			continue
		}
		for j := 1; j < plain.Net.N(); j++ {
			if plain.Trees.Parent[j] == topology.NodeID(i) {
				victim = topology.NodeID(i)
				break
			}
		}
		if victim != topology.None {
			break
		}
	}
	if victim == topology.None {
		t.Skip("no red aggregator with children")
	}
	plain.Kill(victim)
	repaired.Kill(victim)
	resPlain, err := plain.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	resRepair, err := repaired.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if resPlain.Accepted {
		t.Fatalf("no-repair round accepted despite dead aggregator: %+v", resPlain.Outcomes[0])
	}
	out := resRepair.Outcomes[0]
	if !resRepair.Accepted {
		t.Fatalf("repaired round rejected: %+v", out)
	}
	if out.Repaired == 0 {
		t.Fatal("repair round reports no re-attachments")
	}
	if out.Dead != 1 {
		t.Fatalf("Dead = %d, want 1", out.Dead)
	}
	if err := repaired.Trees.Check(repaired.Net.N()); err != nil {
		t.Fatalf("repair violated disjointness: %v", err)
	}
	// Graceful degradation accounting: with repair, nearly every planned
	// participant still contributed on both trees.
	if out.RedContributed < out.Participants*9/10 || out.BlueContributed < out.Participants*9/10 {
		t.Fatalf("contributors collapsed despite repair: red %d blue %d of %d participants",
			out.RedContributed, out.BlueContributed, out.Participants)
	}
}

// TestChurnRepairPreservesDisjointness runs 50 seeded churn trials and
// asserts the repair invariant: every repaired round leaves the trees
// node-disjoint (RepairDead re-verifies internally and any violation
// surfaces as a Run error; the final state is also checked externally).
func TestChurnRepairPreservesDisjointness(t *testing.T) {
	totalRepairs := 0
	for seed := uint64(0); seed < 50; seed++ {
		net, err := topology.Random(topology.PaperConfig(150), rng.New(300+seed))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Repair = true
		cfg.Faults = &fault.Config{CrashRate: 0.12, RecoverRate: 0.3, Seed: seed}
		inst, err := New(net, cfg, 400+seed)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			res, err := inst.RunCount()
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			totalRepairs += res.Outcomes[0].Repaired
			if err := inst.Trees.Check(net.N()); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}
	}
	if totalRepairs == 0 {
		t.Fatal("50 churn trials triggered no repairs; schedule inert")
	}
}

// TestRepairBeatsNoRepairUnderChurn drives identical fault schedules with
// and without repair: repair must accept strictly more rounds once churn
// reaches 5%/round (the paper-level claim the churn experiment sweeps).
func TestRepairBeatsNoRepairUnderChurn(t *testing.T) {
	accepted := func(repair bool) int {
		net, err := topology.Random(topology.PaperConfig(400), rng.New(91))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Repair = repair
		cfg.Faults = &fault.Config{CrashRate: 0.05, RecoverRate: 0.25, Seed: 17}
		inst, err := New(net, cfg, 92)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for round := 0; round < 8; round++ {
			res, err := inst.RunCount()
			if err != nil {
				t.Fatal(err)
			}
			if res.Accepted {
				n++
			}
		}
		return n
	}
	with, without := accepted(true), accepted(false)
	if with <= without {
		t.Fatalf("repair accepted %d of 8 rounds, no-repair %d — want strict improvement", with, without)
	}
}

func TestFadingLossARQRecovers(t *testing.T) {
	// 20% independent fading loss from the round on (Phase I ran without
	// it): the ARQ turns it into retries, and the round still completes
	// with agreeing trees.
	inst := deploy(t, 400, 31, DefaultConfig())
	inst.Medium.SetLoss(0.2, rng.New(31))
	res, err := inst.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	if inst.MAC.Stats().Retries == 0 {
		t.Fatal("no retries at 20% fading; loss model inert")
	}
	if !res.Accepted {
		t.Fatalf("fading round rejected: %+v", res.Outcomes[0])
	}
	// Phase I ran loss-free, so the dense network stays well covered.
	if res.Outcomes[0].Participants < (inst.Net.N()-1)*7/10 {
		t.Fatalf("participation collapsed under fading: %d", res.Outcomes[0].Participants)
	}
}

// TestCongestionLossBehavior verifies the loss model end to end: with the
// default relaxed slicing window the ARQ recovers everything and the trees
// agree exactly; compressing the window to 0.1 s congests the channel so
// some retries exhaust, and the trees diverge — but only by a handful of
// counts, the regime that justifies the paper's Th = 5.
func TestCongestionLossBehavior(t *testing.T) {
	run := func(window float64, seed uint64) (diff int64, dropped uint64) {
		net, err := topology.Random(topology.PaperConfig(500), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.SliceWindow = eventsim.Time(window)
		in, err := New(net, cfg, seed+9)
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.RunCount()
		if err != nil {
			t.Fatal(err)
		}
		return res.Outcomes[0].Diff(), in.MAC.Stats().Dropped
	}
	var congestedDrops uint64
	var worstDiff int64
	for _, seed := range []uint64{77, 78, 79} {
		relaxedDiff, relaxedDrops := run(2.0, seed)
		if relaxedDrops != 0 || relaxedDiff != 0 {
			t.Fatalf("seed %d: relaxed window lost frames: diff=%d drops=%d", seed, relaxedDiff, relaxedDrops)
		}
		diff, drops := run(0.08, seed)
		congestedDrops += drops
		if diff > worstDiff {
			worstDiff = diff
		}
	}
	if congestedDrops == 0 {
		t.Fatal("congested windows produced no drops across seeds; loss model inert")
	}
	if worstDiff > 50 {
		t.Fatalf("congested diff %d implausibly large", worstDiff)
	}
}

func TestDeterministicRun(t *testing.T) {
	run := func() (int64, int64) {
		net, _ := topology.Random(topology.PaperConfig(250), rng.New(77))
		inst, err := New(net, DefaultConfig(), 88)
		if err != nil {
			t.Fatal(err)
		}
		res, err := inst.RunCount()
		if err != nil {
			t.Fatal(err)
		}
		return res.Outcomes[0].Red, res.Outcomes[0].Blue
	}
	r1, b1 := run()
	r2, b2 := run()
	if r1 != r2 || b1 != b2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", r1, b1, r2, b2)
	}
}

// TestObsDoesNotPerturbRun is the determinism contract of the
// instrumentation layers: attaching a metrics sink and a tracer must
// leave every protocol outcome bit-identical to the uninstrumented run.
func TestObsDoesNotPerturbRun(t *testing.T) {
	run := func(sink *obs.Sink, qt *qtrace.Tracer) *Result {
		net, err := topology.Random(topology.PaperConfig(250), rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Obs = sink
		cfg.QTrace = qt
		inst, err := New(net, cfg, 88)
		if err != nil {
			t.Fatal(err)
		}
		readings := make([]int64, net.N())
		r := rng.New(5)
		for i := 1; i < len(readings); i++ {
			readings[i] = int64(r.Intn(50))
		}
		res, err := inst.RunSum(readings)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil, nil)
	sink := obs.NewSink()
	qt := qtrace.New(0)
	observed := run(sink, qt)
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("instrumentation changed the run:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
	if len(sink.Reg.Snapshot()) == 0 {
		t.Fatal("observed run recorded no metrics")
	}
	// The trace must include the Phase I span, the round's phase spans,
	// the per-node slicing windows and the verdict the viewer shows.
	names := map[string]bool{}
	for _, s := range qt.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{
		"phase1:tree-construction", "round", "slicing",
		"phase3:tree-aggregation", "verify:accepted",
	} {
		if !names[want] {
			t.Fatalf("missing span %q in %v", want, names)
		}
	}
}

// TestCoalescedRoundAccepted runs a full no-attack COUNT round with
// slice-coalesced framing under both channel-access schemes: the round
// must still be accepted with both trees near the participant count, and
// the medium must actually have carried multi-slice frames.
func TestCoalescedRoundAccepted(t *testing.T) {
	for _, scheme := range []mac.Scheme{mac.SchemeCSMA, mac.SchemeTDMA} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Slices = 2
			cfg.Coalesce = true
			cfg.MAC.Scheme = scheme
			inst := deploy(t, 200, 5, cfg)
			res, err := inst.RunCount()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatalf("coalesced no-attack round rejected; diff %d", res.Outcomes[0].Diff())
			}
			out := res.Outcomes[0]
			participants := float64(out.Participants)
			if math.Abs(float64(out.Red)-participants) > 0.1*participants {
				t.Errorf("red count %d vs participants %d", out.Red, out.Participants)
			}
			st := inst.Medium.Stats()
			if st.FramesCoalesced == 0 {
				t.Error("no coalesced frames on the air despite Coalesce mode")
			}
			if st.SlicesCoalesced < 2*st.FramesCoalesced {
				t.Errorf("coalesced %d slices over %d frames: multi-slice frames should average >= 2",
					st.SlicesCoalesced, st.FramesCoalesced)
			}
		})
	}
}

// TestCoalesceOffUnchanged pins the flag default: with Coalesce unset no
// KindSliceBatch frame is ever transmitted, so every recorded table and
// golden keeps its meaning.
func TestCoalesceOffUnchanged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slices = 2
	inst := deploy(t, 200, 5, cfg)
	if _, err := inst.RunCount(); err != nil {
		t.Fatal(err)
	}
	if st := inst.Medium.Stats(); st.FramesCoalesced != 0 || st.SlicesCoalesced != 0 {
		t.Fatalf("coalescing stats nonzero with Coalesce off: %+v", st)
	}
}
