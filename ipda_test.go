package ipda

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/ipda-sim/ipda/internal/packet"
	"github.com/ipda-sim/ipda/internal/topology"
)

func TestDeployAndCount(t *testing.T) {
	net, err := Deploy(DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	if net.Size() != 401 {
		t.Fatalf("Size = %d", net.Size())
	}
	if net.AvgDegree() < 10 {
		t.Fatalf("AvgDegree = %v", net.AvgDegree())
	}
	res, err := net.Count()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("clean count rejected: red %d blue %d", res.RedSum, res.BlueSum)
	}
	if res.Value < 300 || res.Value > 401 {
		t.Fatalf("count = %v", res.Value)
	}
	if res.Bytes == 0 {
		t.Fatal("no traffic accounted")
	}
}

func TestSumQuery(t *testing.T) {
	net, err := Deploy(DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	readings := make([]int64, net.Size())
	for i := range readings {
		readings[i] = 10
	}
	res, err := net.Sum(readings)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(res.Participants * 10)
	if math.Abs(res.Value-want) > 0.05*want {
		t.Fatalf("sum %v, participants*10 = %v", res.Value, want)
	}
}

func TestAverageAndVariance(t *testing.T) {
	net, err := Deploy(DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	readings := make([]int64, net.Size())
	for i := range readings {
		readings[i] = 25
	}
	avg, err := net.Query(Average, readings)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Accepted && math.Abs(avg.Value-25) > 1 {
		t.Fatalf("average = %v", avg.Value)
	}
}

func TestPollutionRejected(t *testing.T) {
	net, err := Deploy(DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	// Find an aggregator by probing: inject into increasing IDs until a
	// query is rejected, or use participants. Simpler: pollute a batch of
	// nodes on one tree... InjectPollution on a leaf is a no-op, so
	// pollute several nodes with the same delta; at least one will be an
	// aggregator in a dense network.
	for id := 1; id <= 20; id++ {
		net.InjectPollution(id, 500)
	}
	res, err := net.Count()
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Skip("none of the polluted nodes aggregated (unlikely); skipping")
	}
	// Clean up and verify recovery.
	for id := 1; id <= 20; id++ {
		net.InjectPollution(id, 0)
	}
	res, err = net.Count()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("still rejected after removing polluters")
	}
}

func TestEavesdropper(t *testing.T) {
	cfg := DefaultConfig(400)
	net, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := net.AttachEavesdropper(0)
	if _, err := net.Count(); err != nil {
		t.Fatal(err)
	}
	if rate := e.DisclosureRate(); rate != 0 {
		t.Fatalf("disclosure %v at px=0", rate)
	}

	net2, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2 := net2.AttachEavesdropper(1)
	if _, err := net2.Count(); err != nil {
		t.Fatal(err)
	}
	if rate := e2.DisclosureRate(); rate < 0.99 {
		t.Fatalf("disclosure %v at px=1", rate)
	}
}

func TestTAGBaseline(t *testing.T) {
	cfg := DefaultConfig(400)
	tg, err := DeployTAG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tg.Count()
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < 350 || res.Value > 401 {
		t.Fatalf("TAG count %v", res.Value)
	}
	// iPDA costs more than TAG for the same query on the same config.
	ip, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ipRes, err := ip.Count()
	if err != nil {
		t.Fatal(err)
	}
	if ipRes.Bytes <= res.Bytes {
		t.Fatalf("iPDA bytes %d not above TAG %d", ipRes.Bytes, res.Bytes)
	}
}

func TestCoverageAndParticipation(t *testing.T) {
	net, err := Deploy(DefaultConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	cov, part := net.Coverage(), net.Participation()
	if cov < 0.9 || cov > 1 {
		t.Fatalf("coverage %v", cov)
	}
	if part > cov || part < 0.7 {
		t.Fatalf("participation %v (coverage %v)", part, cov)
	}
	if got := float64(net.Participants()) / float64(net.Size()-1); math.Abs(got-part) > 1e-9 {
		t.Fatalf("Participants()=%v disagrees with Participation()=%v", got, part)
	}
}

func TestDeterministicDeploy(t *testing.T) {
	cfg := DefaultConfig(300)
	a, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.Count()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Count()
	if err != nil {
		t.Fatal(err)
	}
	if ra.RedSum != rb.RedSum || ra.BlueSum != rb.BlueSum {
		t.Fatal("same config, different results")
	}
}

func TestBadConfig(t *testing.T) {
	cfg := DefaultConfig(0)
	if _, err := Deploy(cfg); err == nil {
		t.Fatal("zero nodes accepted")
	}
	cfg = DefaultConfig(100)
	cfg.Slices = 0
	if _, err := Deploy(cfg); err == nil {
		t.Fatal("zero slices accepted")
	}
}

func TestLocalizePolluterPublicAPI(t *testing.T) {
	// Density matters: probe rounds only expose attackers that hold an
	// aggregator role, so use the paper's dense regime.
	cfg := DefaultConfig(400)
	suspect, rounds, err := LocalizePolluter(cfg, 10, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if suspect != 10 {
		t.Fatalf("localized %d, want 10", suspect)
	}
	if rounds > 10 {
		t.Fatalf("rounds %d exceeds log2(400)+1", rounds)
	}
}

func TestIndistinguishabilityGamePublicAPI(t *testing.T) {
	res, err := RunIndistinguishabilityGame(2, 0, 0.3, 1, 1000, 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := TheoreticalLeafAdvantage(0.3, 2)
	if math.Abs(res.Advantage-want) > 0.03 {
		t.Fatalf("advantage %v, theory %v", res.Advantage, want)
	}
	if _, err := RunIndistinguishabilityGame(0, 0, 0.3, 1, 2, 10, 7); err == nil {
		t.Fatal("invalid game accepted")
	}
}

func TestMultiTreePublicAPI(t *testing.T) {
	cfg := DefaultConfig(600)
	net, err := DeployMultiTree(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if net.Size() != 601 {
		t.Fatalf("Size = %d", net.Size())
	}
	if cov := net.Coverage(); cov < 0.6 {
		t.Fatalf("m=3 coverage %v at N=600", cov)
	}
	res, err := net.Count()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || len(res.Outliers) != 0 {
		t.Fatalf("clean m=3 round: %+v", res)
	}
	if len(res.Totals) != 3 {
		t.Fatalf("totals %v", res.Totals)
	}
	// A single polluter is outvoted and identified.
	var attacker int
	for id := 1; id < net.Size(); id++ {
		if net.TreeOf(id) == 1 {
			attacker = id
			break
		}
	}
	net.InjectPollution(attacker, 900)
	res, err = net.Count()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("majority did not carry: %v", res.Totals)
	}
	if len(res.Outliers) != 1 || res.Outliers[0] != 1 {
		t.Fatalf("outliers %v, want [1]", res.Outliers)
	}
	// Sum path too.
	net.InjectPollution(attacker, 0)
	readings := make([]int64, net.Size())
	for i := range readings {
		readings[i] = 3
	}
	sum, err := net.Sum(readings)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Accepted {
		t.Fatalf("m=3 sum rejected: %v", sum.Totals)
	}
	if _, err := DeployMultiTree(cfg, 1); err == nil {
		t.Fatal("m=1 accepted")
	}
	// Phase I implements Equation (2) at every m too: with fixed roles
	// every covered sensor aggregates.
	fixed := cfg
	fixed.AdaptiveRoles = false
	fixedNet, err := DeployMultiTree(fixed, 3)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for id := 1; id < fixedNet.Size(); id++ {
		if fixedNet.inst.Trees.CanSlice(topology.NodeID(id), 1) {
			covered++
		}
	}
	if agg := len(fixedNet.Aggregators()); agg != covered || agg == 0 {
		t.Errorf("fixed roles at m=3: %d aggregators for %d covered sensors", agg, covered)
	}
	// Observation and tracing work as they do for Deploy.
	seen := cfg
	seen.Observe, seen.TraceQueries = true, true
	obsNet, err := DeployMultiTree(seen, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obsNet.Count(); err != nil {
		t.Fatal(err)
	}
	if obsNet.Obs() == nil || obsNet.QueryTrace() == nil || obsNet.QueryTrace().Len() == 0 {
		t.Fatal("observed and traced m=3 deployment recorded nothing")
	}
}

// TestMultiTreeEngineOptions runs the options the m-tree deployment shares
// with Deploy at m = 3 on the TDMA channel: repair under churn keeps every
// COUNT accepted with no dissenting tree, coalescing sends fewer frames per
// round than per-slice framing, and extra base stations cover at least as
// many sensors as node 0 alone.
func TestMultiTreeEngineOptions(t *testing.T) {
	base := DefaultConfig(600)
	base.MAC = "tdma"
	deploy := func(set func(c *Config)) *Network {
		t.Helper()
		cfg := base
		set(&cfg)
		net, err := DeployMultiTree(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	// count runs one COUNT, which must be accepted, and returns its result
	// and the frames it put on the air.
	count := func(name string, net *Network) (*QueryResult, uint64) {
		t.Helper()
		before := net.inst.Medium.Stats().FramesSent
		res, err := net.Count()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("%s: COUNT rejected: %+v", name, res)
		}
		return res, net.inst.Medium.Stats().FramesSent - before
	}
	unanimous := func(name string, net *Network) uint64 {
		t.Helper()
		res, frames := count(name, net)
		if len(res.Outliers) != 0 {
			t.Fatalf("%s: trees disagree: %+v", name, res)
		}
		return frames
	}

	plain := deploy(func(*Config) {})
	plainFrames := unanimous("plain", plain)

	churn := deploy(func(c *Config) {
		c.Repair = true
		c.Faults = &Faults{CrashRate: 0.05, RecoverRate: 0.25, Seed: 3}
	})
	for r := 0; r < 3; r++ {
		unanimous("repair under churn", churn)
	}

	// Coalesced slices reach their non-anchor targets without ARQ, so the
	// trees may disagree slightly; the majority still carries.
	coalesced := deploy(func(c *Config) { c.Coalesce = true })
	if _, got := count("coalesce", coalesced); got >= plainFrames {
		t.Errorf("coalesced round sent %d frames, per-slice framing %d", got, plainFrames)
	}

	// Extra base stations root every tree. One deployment's coverage is
	// not monotone in its roots (each changes the flood's timing and role
	// draws: seed 1 covers 0.768 from node 0 alone, 0.730 with three extra
	// roots), so the comparison is over the mean of four deployments.
	roots := []int{150, 300, 450}
	var single, extra float64
	for seed := uint64(1); seed <= 4; seed++ {
		one := deploy(func(c *Config) { c.Seed = seed })
		multi := deploy(func(c *Config) { c.Seed, c.ExtraBaseStations = seed, roots })
		for _, r := range roots {
			if multi.TreeOf(r) != -2 {
				t.Fatalf("seed %d: extra base station %d on tree %d", seed, r, multi.TreeOf(r))
			}
		}
		unanimous("extra base stations", multi)
		single += one.Coverage() / 4
		extra += multi.Coverage() / 4
	}
	if extra < single {
		t.Errorf("mean coverage with extra base stations %v, below node 0 alone %v", extra, single)
	}
}

// TestTDMAAckCollidesWithCoalescedBatch pins a known gap in TDMA's
// two-hop slot colouring: it keeps same-slot data transmitters apart, but
// the ACK a receiver returns inside its sender's slot comes from one hop
// further out. The test searches the air for a node X where a coalesced
// SLICE_BATCH's copy for X, a non-anchor target, collided in the same
// round as an ACK heard at X. ARQ retries only the anchor, so X loses its
// slices and the trees disagree. The field is seed 9's: the default field
// (seed 1) shows the gap too, but its trees stay within Th of each other
// there, and this one's disagree by more, so the vote names an outlier. A
// colouring that separates ACKs too must flip this test.
func TestTDMAAckCollidesWithCoalescedBatch(t *testing.T) {
	cfg := DefaultConfig(600)
	cfg.MAC = "tdma"
	cfg.Coalesce = true
	cfg.Seed = 9
	net, err := DeployMultiTree(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	type batch struct{ src, anchor topology.NodeID }
	lostAt := map[topology.NodeID]batch{} // non-anchor targets whose copy collided
	ackAt := map[topology.NodeID]bool{}   // nodes where an ACK collided
	var p packet.Packet
	net.inst.Medium.AddTap(func(at, src, dst topology.NodeID, frame []byte, collided bool) {
		if !collided || packet.DecodeFrame(&p, frame) != nil {
			return
		}
		switch p.Kind {
		case packet.KindSliceBatch:
			for _, e := range p.Entries {
				if e.Dst == int32(at) && topology.NodeID(e.Dst) != dst {
					lostAt[at] = batch{src, dst}
				}
			}
		case packet.KindAck:
			ackAt[at] = true
		}
	})
	res, err := net.Count()
	if err != nil {
		t.Fatal(err)
	}
	var hits []topology.NodeID
	for x := range lostAt {
		if ackAt[x] {
			hits = append(hits, x)
		}
	}
	if len(hits) == 0 {
		t.Fatalf("no node lost a non-anchor batch copy where an ACK collided: batch losses at %v, ACK collisions at %v", lostAt, ackAt)
	}
	if len(res.Outliers) == 0 {
		t.Fatalf("lost coalesced slices left the trees unanimous: %+v", res)
	}
	slices.Sort(hits)
	t.Logf("batch copies lost under an ACK at %v (first: %d→%d, anchor %d); tree totals %v",
		hits, lostAt[hits[0]].src, hits[0], lostAt[hits[0]].anchor, res.Totals)
}

func TestExtraBaseStationsPublicAPI(t *testing.T) {
	cfg := DefaultConfig(400)
	cfg.ExtraBaseStations = []int{33, 77}
	net, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Count()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("multi-sink count rejected: red %d blue %d", res.RedSum, res.BlueSum)
	}
	if res.Value < float64(res.Participants)*0.9 {
		t.Fatalf("fused count %v vs %d participants", res.Value, res.Participants)
	}
}

func TestQueryExtremum(t *testing.T) {
	net, err := Deploy(DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	readings := make([]int64, net.Size())
	for i := 1; i < len(readings); i++ {
		readings[i] = int64(100 + i%150)
	}
	res, err := net.QueryExtremum(Max, readings, 32, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Skip("extremum round rejected by loss")
	}
	trueMax := 249.0
	if res.Value < trueMax*0.98 || res.Value > trueMax*1.25 {
		t.Fatalf("max estimate %v, true %v", res.Value, trueMax)
	}
	if _, err := net.QueryExtremum(Sum, readings, 8, 300); err == nil {
		t.Fatal("non-extremum kind accepted")
	}
}

// TestRedBlueAggregatorsPartition checks TreeAggregators at m = 2 and 3:
// the trees are disjoint, their union is Aggregators(), every node listed
// for tree t has TreeOf t, and a tree index outside [0, m) yields nil.
func TestRedBlueAggregatorsPartition(t *testing.T) {
	deploy := map[int]func() (*Network, error){
		2: func() (*Network, error) { return Deploy(DefaultConfig(300)) },
		3: func() (*Network, error) { return DeployMultiTree(DefaultConfig(600), 3) },
	}
	for _, m := range []int{2, 3} {
		t.Run(fmt.Sprintf("m%d", m), func(t *testing.T) {
			net, err := deploy[m]()
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int]bool{}
			var union []int
			for tr := 0; tr < m; tr++ {
				ids := net.TreeAggregators(tr)
				if len(ids) == 0 {
					t.Fatalf("tree %d has no aggregator", tr)
				}
				for _, id := range ids {
					if seen[id] {
						t.Fatalf("node %d on two trees", id)
					}
					seen[id] = true
					if got := net.TreeOf(id); got != tr {
						t.Fatalf("node %d listed on tree %d has TreeOf %d", id, tr, got)
					}
				}
				union = append(union, ids...)
			}
			if !slices.Equal(net.Aggregators(), union) {
				t.Fatal("Aggregators() is not the union of the trees")
			}
			for _, tr := range []int{-2, -1, m} {
				if ids := net.TreeAggregators(tr); ids != nil {
					t.Fatalf("TreeAggregators(%d) = %v, want nil", tr, ids)
				}
			}
		})
	}
}

func TestAnalyticHelpers(t *testing.T) {
	if OverheadRatio(2) != 2.5 {
		t.Fatal("OverheadRatio wrong")
	}
	if d := TheoreticalDisclosure(0.1, 3); math.Abs(d-0.001) > 3e-4 {
		t.Fatalf("TheoreticalDisclosure = %v", d)
	}
}

func TestObserveExportsMetricsAndSpans(t *testing.T) {
	cfg := DefaultConfig(250)
	cfg.Observe = true
	cfg.TraceQueries = true
	net, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Count(); err != nil {
		t.Fatal(err)
	}
	o := net.Obs()
	if o == nil {
		t.Fatal("Obs() nil with Observe set")
	}
	var prom bytes.Buffer
	if err := o.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE ipda_radio_tx_bytes_total counter",
		`ipda_core_rounds_total{verdict="accepted"} 1`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("prometheus export missing %q", want)
		}
	}
	q := net.QueryTrace()
	if q == nil {
		t.Fatal("QueryTrace() nil with TraceQueries set")
	}
	var spans bytes.Buffer
	if err := q.WriteChromeTrace(&spans); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(spans.Bytes()) {
		t.Fatal("span export is not valid JSON")
	}
	for _, want := range []string{"phase1:tree-construction", "phase3:tree-aggregation"} {
		if q.Len() == 0 || !strings.Contains(spans.String(), want) {
			t.Fatalf("span export missing %q (%d spans)", want, q.Len())
		}
	}

	// Same config without Observe and TraceQueries: no observer, no
	// trace, identical results.
	plainNet, err := Deploy(DefaultConfig(250))
	if err != nil {
		t.Fatal(err)
	}
	if plainNet.Obs() != nil || plainNet.QueryTrace() != nil {
		t.Fatal("Obs() or QueryTrace() non-nil without Observe and TraceQueries")
	}
	plain, err := plainNet.Count()
	if err != nil {
		t.Fatal(err)
	}
	observed, err := func() (*QueryResult, error) {
		c := DefaultConfig(250)
		c.Observe = true
		c.TraceQueries = true
		n, err := Deploy(c)
		if err != nil {
			return nil, err
		}
		return n.Count()
	}()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observation perturbed the round: %+v vs %+v", plain, observed)
	}
}

func TestFaultsAndRepairPublicAPI(t *testing.T) {
	cfg := DefaultConfig(400)
	cfg.Repair = true
	cfg.Faults = &Faults{
		CrashRate:   0.05,
		RecoverRate: 0.25,
		Seed:        9,
		Events:      []FaultEvent{{Round: 0, Node: 17}, {Round: 1, Node: 17, Recover: true}},
	}
	net, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawDead, sawRepair := false, false
	for round := 0; round < 4; round++ {
		res, err := net.Count()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("round %d rejected under repair: |diff| %d", round, res.BlueSum-res.RedSum)
		}
		if res.Dead > 0 {
			sawDead = true
		}
		if res.Repaired > 0 {
			sawRepair = true
		}
		if res.RedContributors > res.Participants || res.BlueContributors > res.Participants {
			t.Fatalf("round %d: contributors %d/%d exceed participants %d",
				round, res.RedContributors, res.BlueContributors, res.Participants)
		}
	}
	if !sawDead {
		t.Fatal("fault schedule never killed a node")
	}
	if !sawRepair {
		t.Fatal("repair never re-attached an orphan")
	}
}

func TestKillRevivePublicAPI(t *testing.T) {
	net, err := Deploy(DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	before, err := net.Count()
	if err != nil {
		t.Fatal(err)
	}
	net.Kill(5)
	during, err := net.Count()
	if err != nil {
		t.Fatal(err)
	}
	if during.Dead != 1 {
		t.Fatalf("Dead = %d after Kill", during.Dead)
	}
	net.Revive(5)
	after, err := net.Count()
	if err != nil {
		t.Fatal(err)
	}
	if after.Dead != 0 {
		t.Fatalf("Dead = %d after Revive", after.Dead)
	}
	if !before.Accepted || !after.Accepted {
		t.Fatal("clean rounds around the kill should be accepted")
	}

	tg, err := DeployTAG(DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	full, err := tg.Count()
	if err != nil {
		t.Fatal(err)
	}
	tg.Kill(5)
	less, err := tg.Count()
	if err != nil {
		t.Fatal(err)
	}
	if less.Participants >= full.Participants {
		t.Fatalf("TAG participants %d not reduced from %d by Kill", less.Participants, full.Participants)
	}
	tg.Revive(5)
}
