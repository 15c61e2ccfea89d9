package ipda

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
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
	// Options the m-tree protocol cannot honour are rejected by name, not
	// silently dropped.
	for field, set := range map[string]func(*Config){
		"Repair":            func(c *Config) { c.Repair = true },
		"Coalesce":          func(c *Config) { c.Coalesce = true },
		"Faults":            func(c *Config) { c.Faults = &Faults{CrashRate: 0.05, Seed: 1} },
		"ExtraBaseStations": func(c *Config) { c.ExtraBaseStations = []int{5} },
	} {
		bad := cfg
		set(&bad)
		if _, err := DeployMultiTree(bad, 3); err == nil || !strings.Contains(err.Error(), "Config."+field) {
			t.Errorf("DeployMultiTree with %s: err = %v, want one naming Config.%s", field, err, field)
		}
	}
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

func TestRedBlueAggregatorsPartition(t *testing.T) {
	net, err := Deploy(DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	reds, blues := net.RedAggregators(), net.BlueAggregators()
	if len(reds) == 0 || len(blues) == 0 {
		t.Fatal("degenerate trees")
	}
	seen := map[int]bool{}
	for _, id := range append(append([]int{}, reds...), blues...) {
		if seen[id] {
			t.Fatalf("node %d on both trees", id)
		}
		seen[id] = true
	}
	if len(net.Aggregators()) != len(reds)+len(blues) {
		t.Fatal("Aggregators() not the union")
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
	if *plain != *observed {
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
