package ipda

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// deployTDMA3 deploys three trees over 600 nodes on the TDMA channel with
// no fading loss: data frames never collide and ARQ recovers every
// unicast an ACK corrupts, so every tree total is exact.
func deployTDMA3(t *testing.T, set func(*Config)) *Network {
	t.Helper()
	cfg := DefaultConfig(600)
	cfg.MAC = "tdma"
	if set != nil {
		set(&cfg)
	}
	net, err := DeployMultiTree(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// participantReadings returns readings for every node (100 + id%150, so
// some participant reads 100) and the participants' readings alone: the
// oracle's population.
func participantReadings(net *Network) (all, parts []int64) {
	all = make([]int64, net.Size())
	for i := 1; i < len(all); i++ {
		all[i] = int64(100 + i%150)
	}
	for _, id := range net.inst.Participants() {
		parts = append(parts, all[id])
	}
	return all, parts
}

// TestMultiTreeQueryKinds answers AVERAGE, VARIANCE, MIN and MAX on an
// m = 3 deployment and compares each with an oracle over the
// participants' readings. The additive kinds are exact; the extrema obey
// the power-mean bound QueryExtremum documents: over n participants, MAX
// lies in [max, n^(1/p)·max] and MIN in [min/n^(1/p), min].
func TestMultiTreeQueryKinds(t *testing.T) {
	net := deployTDMA3(t, nil)
	readings, parts := participantReadings(net)
	n := float64(len(parts))
	if n < 100 {
		t.Fatalf("only %v participants", n)
	}
	var sum, sumSq int64
	lo, hi := parts[0], parts[0]
	for _, r := range parts {
		sum += r
		sumSq += r * r
		lo, hi = min(lo, r), max(hi, r)
	}
	mean := float64(sum) / n
	for _, c := range []struct {
		kind Kind
		want float64
	}{
		{Average, mean},
		{Variance, float64(sumSq)/n - mean*mean},
	} {
		res, err := net.Query(c.kind, readings)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted || len(res.Outliers) != 0 || res.Value != c.want {
			t.Errorf("%v: accepted %v, outliers %v, value %v, want %v (totals %v)",
				c.kind, res.Accepted, res.Outliers, res.Value, c.want, res.Totals)
		}
	}
	const power, normal = 32, 300
	slack := math.Pow(n, 1.0/power)
	const rel = 1e-9 // fixed-point rounding
	for _, c := range []struct {
		kind     Kind
		low, top float64
	}{
		{Max, float64(hi) * (1 - rel), float64(hi) * slack * (1 + rel)},
		{Min, float64(lo) / slack * (1 - rel), float64(lo) * (1 + rel)},
	} {
		res, err := net.QueryExtremum(c.kind, readings, power, normal)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted || res.Value < c.low || res.Value > c.top {
			t.Errorf("%v: accepted %v, value %v, want within [%v, %v] (totals %v)",
				c.kind, res.Accepted, res.Value, c.low, c.top, res.Totals)
		}
	}
}

// TestMultiTreeStream runs an 8-epoch streaming day on an m = 3
// deployment: every standing query's firing is accepted.
func TestMultiTreeStream(t *testing.T) {
	net := deployTDMA3(t, nil)
	res, err := net.RunStream(StreamConfig{
		Epochs:   8,
		Interval: 3600,
		Queries:  DayQueries(1),
		Readings: func(id, epoch int) int64 { return DiurnalLoad(id, float64(epoch)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, f := range res.Firings {
		kinds[f.Query] = true
		if !f.Accepted {
			t.Errorf("epoch %d %s rejected: %+v", f.Epoch, f.Query, f)
		}
	}
	if res.Rejected != 0 || res.Accepted != len(res.Firings) || len(kinds) != len(DayQueries(1)) {
		t.Fatalf("%d accepted, %d rejected of %d firings over queries %v", res.Accepted, res.Rejected, len(res.Firings), kinds)
	}
}

// TestMultiTreeObserveAndTrace observes and traces an m = 3 deployment
// with a polluted tree-2 aggregator through the code paths m = 2 uses: the
// export holds Phase I's tree-2 role count and the engine's verdict and
// outlier counters, and the trace holds tree 2's aggregate spans and the
// verify instant.
func TestMultiTreeObserveAndTrace(t *testing.T) {
	net := deployTDMA3(t, func(c *Config) { c.Observe, c.TraceQueries = true, true })
	for id := 1; id < net.Size(); id++ {
		if net.TreeOf(id) == 2 {
			net.InjectPollution(id, 900)
			break
		}
	}
	res, err := net.Count()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || len(res.Outliers) != 1 || res.Outliers[0] != 2 {
		t.Fatalf("polluted tree 2 not outvoted: accepted %v, outliers %v, totals %v", res.Accepted, res.Outliers, res.Totals)
	}
	var prom bytes.Buffer
	if err := net.Obs().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ipda_mtree_outlier_trees_total 1",
		`ipda_core_rounds_total{verdict="accepted"} 1`,
		fmt.Sprintf(`ipda_tree_roles_total{role="t2"} %d`, len(net.inst.Trees.Aggregators(2))),
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus export missing %q", want)
		}
	}
	var trace bytes.Buffer
	if err := net.QueryTrace().WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"aggregate:t2"`, `"verify:accepted"`} {
		if !strings.Contains(trace.String(), want) {
			t.Errorf("query trace missing %s", want)
		}
	}
}

// TestMultiTreeOfTwoIsDeploy: one flood, one seed and one key rule serve
// every m, so a two-tree DeployMultiTree is Deploy, query for query.
func TestMultiTreeOfTwoIsDeploy(t *testing.T) {
	cfg := DefaultConfig(400)
	two, err := DeployMultiTree(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	readings := make([]int64, one.Size())
	for i := range readings {
		readings[i] = int64(i%23 + 1)
	}
	for _, net := range []*Network{one, two} {
		if len(net.inst.Trees.Heard) != 2 {
			t.Fatalf("%d trees deployed", len(net.inst.Trees.Heard))
		}
	}
	a, err := one.Count()
	if err != nil {
		t.Fatal(err)
	}
	b, err := two.Count()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("COUNT: Deploy %+v, DeployMultiTree %+v", a, b)
	}
	a, err = one.Sum(readings)
	if err != nil {
		t.Fatal(err)
	}
	b, err = two.Sum(readings)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("SUM: Deploy %+v, DeployMultiTree %+v", a, b)
	}
}
