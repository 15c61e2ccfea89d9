package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkDefs reads the metric names and units BENCHMARK.json promises.
func benchmarkDefs(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	return e2e, layer
}

func checkEmitted(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s not emitted", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
}

// shortConfig runs a few operations per workload: scale-10k's trials take
// tens of times longer than the others' operations.
func shortConfig(w *workload) config {
	c := config{seed: 7, setups: 1, workers: 2, shards: 2, prefix: 20, calib: 5 * time.Millisecond}
	if w.name == "scale-10k" {
		c.prefix = 4
	}
	return c
}

// TestWorkloads runs every workload briefly, twice: the second run uses
// one fig7-sweep worker and one scale-10k shard. Every end-to-end metric
// must be emitted with its unit, no operation may fail, and the simulated
// outputs must not depend on the run or on the worker and shard counts.
func TestWorkloads(t *testing.T) {
	e2e, _ := benchmarkDefs(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := shortConfig(w)
			a, err := run(w, c, false, "", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, a, e2e)
			if a.Failed != 0 || !a.Correct {
				t.Errorf("%d of %d operations failed: %v", a.Failed, a.Attempted, a.Errors)
			}
			c.workers, c.shards = 1, 1
			b, err := run(w, c, false, "", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest != b.Digest {
				t.Errorf("sim_digest differs: %s with 2 workers/shards, %s with 1", a.Digest, b.Digest)
			}
			for _, name := range []string{"sim_bytes_per_op", "sim_accept_rate"} {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s differs: %v vs %v", name, a.Metrics[name], b.Metrics[name])
				}
			}
		})
	}
}

// TestScaleAt checks that an operation is scaled by the median of the
// probes around its end, and that operations near the ends of the loop
// use the probes that exist.
func TestScaleAt(t *testing.T) {
	p := &pacer{
		at:  []int64{0, 100, 200, 300, 400, 500, 600, 700},
		dur: []int64{1, 1, 2, 1e6, 2, 2, 3, 3},
	}
	for _, c := range []struct {
		end  int64
		want int64 // the reference time the scale divides by
	}{
		{350, 2},   // probes 100..600: 1, 2, 1e6, 2, 2, 3
		{0, 1},     // probes 0..200: 1, 1, 2
		{10000, 3}, // probes 500..700: 2, 3, 3
	} {
		if got, want := p.scaleAt(c.end), paceNominal/float64(c.want); got != want {
			t.Errorf("scaleAt(%d) = %v, want %v", c.end, got, want)
		}
	}
}

// TestTraced checks a traced run: every per-layer metric is emitted with
// its unit, spans reach the file, and the ledger attributes round time.
func TestTraced(t *testing.T) {
	_, layer := benchmarkDefs(t)
	w, _ := workloadByName("steady-rounds")
	out := filepath.Join(t.TempDir(), "spans.jsonl")
	res, err := run(w, shortConfig(w), true, out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, res, layer)
	if res.Failed != 0 {
		t.Errorf("%d operations failed: %v", res.Failed, res.Errors)
	}
	for _, name := range []string{"core.round_ms_p50", "eventsim.events_per_round", "ledger.eventsim_ms_per_round", "linksec.slices_per_round"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		t.Fatal("span file is empty")
	}
}
