package stream

import (
	"reflect"
	"testing"

	"github.com/ipda-sim/ipda/internal/aggregate"
	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/energy"
	"github.com/ipda-sim/ipda/internal/fault"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/tree"
)

// readingAt is the deterministic reading source shared by the tests.
func readingAt(id, epoch int) int64 {
	return DiurnalLoad(id, float64(epoch%96)/4)
}

func randomDeploy(t *testing.T, nodes int, seed uint64, cfg core.Config) *core.Instance {
	t.Helper()
	net, err := topology.Random(topology.PaperConfig(nodes), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.New(net, cfg, seed+1000)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// lossFreeDeploy builds a paper-style deployment on a slotted TDMA MAC
// with a stretched slice window: collisions vanish, every participant's
// shares land, and accepted sums become exact — so a plaintext oracle
// applies.
func lossFreeDeploy(t *testing.T, seed uint64, cfg core.Config) *core.Instance {
	t.Helper()
	cfg.MAC.Scheme = mac.SchemeTDMA
	cfg.SliceWindow = 10
	return randomDeploy(t, 300, seed, cfg)
}

func TestConfigValidation(t *testing.T) {
	in := randomDeploy(t, 100, 1, core.DefaultConfig())
	bad := []Config{
		{Interval: 1, Queries: DayQueries(1), Readings: readingAt},                             // Epochs
		{Epochs: 4, Queries: DayQueries(1), Readings: readingAt},                               // Interval
		{Epochs: 4, Interval: 1, Readings: readingAt},                                          // no queries
		{Epochs: 4, Interval: 1, Queries: DayQueries(1)},                                       // no readings
		{Epochs: 4, Interval: 1, Readings: readingAt, Queries: []Query{{Kind: aggregate.Sum}}}, // Window 0
	}
	for i, cfg := range bad {
		if _, err := New(in, cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

// TestPipelineDeterminism runs the full day mix — staggered SUM/AVG/VAR/MAX,
// background churn with repair, an energy meter — twice on independently
// built but identically seeded worlds. Every reported number must match
// exactly: the pipeline's outputs derive from the simulation alone.
func TestPipelineDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := core.DefaultConfig()
		cfg.Repair = true
		cfg.Faults = &fault.Config{CrashRate: 0.02, RecoverRate: 0.3, Seed: 11}
		in := randomDeploy(t, 300, 5, cfg)
		meter, err := energy.NewMeter(in.Net.N(), energy.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(in, Config{
			Epochs:   10,
			Interval: 120,
			Queries:  DayQueries(2),
			Readings: readingAt,
			Meter:    meter,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical pipelines diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Accepted+a.Rejected != len(a.Queries) {
		t.Fatalf("accept accounting: %d+%d != %d firings", a.Accepted, a.Rejected, len(a.Queries))
	}
	if a.Accepted == 0 {
		t.Fatal("no firing accepted across the whole run")
	}
	if a.Joules <= 0 || a.ReadingsPerSecond() <= 0 || a.JoulesPerReading() <= 0 {
		t.Fatalf("headline metrics not positive: %v J, %v rps, %v J/reading",
			a.Joules, a.ReadingsPerSecond(), a.JoulesPerReading())
	}
	if want := int64((a.Epochs) * 300); a.Readings != want {
		t.Fatalf("Readings = %d, want %d", a.Readings, want)
	}
}

// TestFreshVsReusedInstance is the arena-reuse oracle at the core level: a
// pipeline over a Reset-recycled instance must reproduce the fresh
// instance's Result bit for bit (PR 5's pooling contract extended to
// multi-epoch streams).
func TestFreshVsReusedInstance(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Repair = true
	cfg.Faults = &fault.Config{CrashRate: 0.03, RecoverRate: 0.25, Seed: 4}
	scfg := Config{Epochs: 6, Interval: 60, Queries: DayQueries(2), Readings: readingAt}

	fresh := randomDeploy(t, 250, 5, cfg)
	pf, err := New(fresh, scfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pf.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Dirty an instance with a different workload, then Reset it into the
	// same deployment the fresh run used.
	reused := randomDeploy(t, 200, 77, core.DefaultConfig())
	if _, err := reused.RunCount(); err != nil {
		t.Fatal(err)
	}
	net, err := topology.Random(topology.PaperConfig(250), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := reused.Reset(net, cfg, 5+1000); err != nil {
		t.Fatal(err)
	}
	pr, err := New(reused, scfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("reused instance diverged from fresh:\n%+v\nvs\n%+v", want, got)
	}
}

// TestWindowedSumOracleLossFree checks the window fold end to end: on a
// loss-free medium with no churn, every accepted SUM firing must equal
// the plaintext sum of each participant's sliding window.
func TestWindowedSumOracleLossFree(t *testing.T) {
	in := lossFreeDeploy(t, 5, core.DefaultConfig())
	const W = 3
	p, err := New(in, Config{
		Epochs:   8,
		Interval: 30,
		Queries:  []Query{{Name: "w3-sum", Kind: aggregate.Sum, Window: W, Period: 1, Phase: 0}},
		Readings: readingAt,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if in.Medium.Stats().FramesCollided != 0 {
		t.Skip("medium not loss-free; oracle does not apply")
	}
	participants := in.Participants()
	checked := 0
	for _, q := range res.Queries {
		if q.Epoch < W-1 {
			t.Fatalf("query fired at epoch %d before its window filled", q.Epoch)
		}
		if !q.Accepted || q.RedContributed != q.Participants || q.BlueContributed != q.Participants {
			continue
		}
		var want int64
		for _, id := range participants {
			for k := 0; k < W; k++ {
				want += readingAt(int(id), q.Epoch-k)
			}
		}
		if q.Value != float64(want) {
			t.Fatalf("epoch %d: accepted sum %v, plaintext window oracle %d", q.Epoch, q.Value, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no fully-contributed accepted firing to check")
	}
	// The first firing waits for the window: 8 epochs, W=3 → 6 firings.
	if len(res.Queries) != 8-W+1 {
		t.Fatalf("%d firings, want %d", len(res.Queries), 8-W+1)
	}
}

// TestChurnSpansEpochBoundaries is the mid-epoch churn regression: a
// scripted fault schedule kills an aggregator *between the two rounds of
// an AVG firing*, keeps it dead across the next epoch boundary, recovers
// it epochs later, and kills a second node near the end. The pipeline's
// Dead accounting must track the scripted dead-set exactly at every
// firing, repair must engage while the aggregator is down, and accepted
// SUM firings must match a fresh-build oracle given the same dead set.
func TestChurnSpansEpochBoundaries(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Repair = true

	// Choose victims from the basis trees: an aggregator with children
	// (so repair is load-bearing) and any other participant.
	probe := lossFreeDeploy(t, 77, cfg)
	var agg, leaf topology.NodeID
	for i := 1; i < probe.Net.N() && agg == 0; i++ {
		id := topology.NodeID(i)
		if probe.Trees.Tree[id] != 0 {
			continue
		}
		for j := 1; j < probe.Net.N(); j++ {
			if probe.Trees.Parent[j] == id {
				agg = id
				break
			}
		}
	}
	if agg == 0 {
		t.Skip("no red aggregator with children")
	}
	for i := 1; i < probe.Net.N(); i++ {
		if id := topology.NodeID(i); id != agg && probe.Trees.Tree[id] != tree.Root {
			leaf = id
			break
		}
	}

	// Query mix: SUM every epoch (1 round) + AVG every 2nd epoch from
	// epoch 1 (2 rounds). Additive rounds per epoch: 1,3,1,3,… so the
	// scripted rounds below land mid-firing and mid-epoch, and the
	// aggregator stays dead across two epoch boundaries.
	queries := []Query{
		{Name: "sum", Kind: aggregate.Sum, Window: 1, Period: 1, Phase: 0},
		{Name: "avg", Kind: aggregate.Average, Window: 2, Period: 2, Phase: 1},
	}
	events := []fault.Event{
		{Round: 2, Kind: fault.Crash, Node: agg},   // between AVG's two rounds in epoch 1
		{Round: 6, Kind: fault.Recover, Node: agg}, // mid-epoch 3
		{Round: 8, Kind: fault.Crash, Node: leaf},  // epoch 4 (or 5) onward
	}
	cfg.Faults = &fault.Config{Seed: 1, Events: events}
	in := lossFreeDeploy(t, 77, cfg)

	const epochs = 8
	p, err := New(in, Config{Epochs: epochs, Interval: 45, Queries: queries, Readings: readingAt})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Replay the schedule round by round to know the dead-set each firing
	// ended on; assert the pipeline's epoch-to-epoch accounting agrees.
	deadSet := map[topology.NodeID]bool{}
	next, round := 0, 0
	repairs := 0
	for _, q := range res.Queries {
		for r := 0; r < len(q.Latencies); r++ {
			for next < len(events) && events[next].Round == round {
				deadSet[events[next].Node] = events[next].Kind == fault.Crash
				next++
			}
			round++
		}
		wantDead := 0
		for _, d := range deadSet {
			if d {
				wantDead++
			}
		}
		if q.Dead != wantDead {
			t.Fatalf("epoch %d %s: Dead = %d, scripted dead-set has %d",
				q.Epoch, queries[q.Query].Name, q.Dead, wantDead)
		}
		if q.Dead == 0 && (q.Repaired != 0 || q.Skipped != 0) {
			t.Fatalf("epoch %d: repair activity (%d reattached, %d skipped) with nobody dead",
				q.Epoch, q.Repaired, q.Skipped)
		}
		repairs += q.Repaired + q.Skipped
	}
	if round != 1+3+1+3+1+3+1+3 {
		t.Fatalf("replay consumed %d rounds, want 16", round)
	}
	if repairs == 0 {
		t.Fatal("schedule killed an aggregator with children yet repair never engaged (no re-attachments, no skips)")
	}
	if err := in.Trees.Check(in.Net.N()); err != nil {
		t.Fatalf("trees not disjoint after churn run: %v", err)
	}
	if res.Accepted < len(res.Queries)*2/3 {
		t.Fatalf("only %d of %d firings accepted under repair", res.Accepted, len(res.Queries))
	}

	// Fresh-build oracle: for each accepted, fully-contributed SUM firing,
	// a from-scratch instance over the same deployment with the same dead
	// set applied must report the same accepted sum.
	if in.Medium.Stats().FramesCollided != 0 {
		t.Skip("medium not loss-free; oracle does not apply")
	}
	checked := 0
	for _, q := range res.Queries {
		if queries[q.Query].Kind != aggregate.Sum || !q.Accepted {
			continue
		}
		if q.RedContributed != q.Participants || q.BlueContributed != q.Participants {
			continue
		}
		ocfg := core.DefaultConfig()
		ocfg.Repair = true
		oracle := lossFreeDeploy(t, 77, ocfg)
		if q.Dead > 0 {
			// Reconstruct the dead-set at this firing from the schedule.
			dead := map[topology.NodeID]bool{}
			rounds := 0
			for _, prev := range res.Queries {
				if prev.Epoch > q.Epoch || (prev.Epoch == q.Epoch && prev.Query > q.Query) {
					break
				}
				for r := 0; r < len(prev.Latencies); r++ {
					for _, e := range events {
						if e.Round == rounds {
							dead[e.Node] = e.Kind == fault.Crash
						}
					}
					rounds++
				}
			}
			for id, d := range dead {
				if d {
					oracle.Kill(id)
				}
			}
		}
		readings := make([]int64, oracle.Net.N())
		for i := 1; i < len(readings); i++ {
			readings[i] = readingAt(i, q.Epoch)
		}
		ores, err := oracle.RunSum(readings)
		if err != nil {
			t.Fatal(err)
		}
		oout := ores.Outcomes[0]
		if !ores.Accepted || oout.RedContributed != oout.Participants || oout.BlueContributed != oout.Participants {
			continue // oracle round degraded; nothing to compare
		}
		if oracle.Medium.Stats().FramesCollided != 0 {
			continue
		}
		if q.Value != ores.Value {
			t.Fatalf("epoch %d: streamed sum %v, fresh-build oracle %v (dead=%d)",
				q.Epoch, q.Value, ores.Value, q.Dead)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no firing qualified for the fresh-build oracle")
	}
}

// TestBackPressure pins the overload behavior: when an epoch's queries
// overrun the interval, the next epoch starts late instead of dropping
// work — every scheduled firing still runs.
func TestBackPressure(t *testing.T) {
	in := randomDeploy(t, 250, 5, core.DefaultConfig())
	p, err := New(in, Config{
		Epochs:   4,
		Interval: 0.001, // far shorter than one round's airtime
		Queries:  []Query{{Name: "sum", Kind: aggregate.Sum, Window: 1, Period: 1, Phase: 0}},
		Readings: readingAt,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 4 {
		t.Fatalf("%d firings, want 4 (back-pressure must not drop work)", len(res.Queries))
	}
	if res.Rounds != 4 {
		t.Fatalf("cumulative rounds %d, want 4", res.Rounds)
	}
}
