package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/ipda-sim/ipda/internal/mac"
)

// renderOpts runs one experiment under explicit Options and renders its
// table (text + CSV) for byte-level comparison.
func renderOpts(t *testing.T, name string, o Options) string {
	t.Helper()
	tb, err := Run(name, o)
	if err != nil {
		t.Fatalf("%s %+v: %v", name, o, err)
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatalf("%s %+v: %v", name, o, err)
	}
	return buf.String()
}

// smallOptions are the shared shape of the determinism tests: sizes and
// trials kept small; the point is scheduling- and reuse-independence, not
// statistical power.
func smallOptions(name string, workers, shards int, fresh bool) Options {
	o := Options{Sizes: []int{200, 300}, Trials: 2, Seed: 99, Workers: workers, Shards: shards, FreshWorlds: fresh}
	if name == "indist" {
		o.Trials = 2000
	}
	if name == "scale" {
		// Sizes whose default partitions have 2 and 4 cluster regions, so
		// intra-trial sharding actually has work to distribute.
		o.Sizes = []int{600, 900}
	}
	return o
}

// renderTable runs one experiment with the small defaults.
func renderTable(t *testing.T, name string, workers, shards int, fresh bool) string {
	t.Helper()
	return renderOpts(t, name, smallOptions(name, workers, shards, fresh))
}

// TestEveryExperimentDeterministicAcrossWorkers is the cross-cutting
// guarantee the harness migration buys: for every registered experiment,
// equal Options produce byte-identical tables whether trials run on one
// worker or race across eight. Both runs use the default pooled arenas, so
// the check also exercises reuse under worker counts that hand one arena
// trials of different network sizes back to back.
func TestEveryExperimentDeterministicAcrossWorkers(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			seq := renderTable(t, name, 1, 0, false)
			par := renderTable(t, name, 8, 0, false)
			if seq != par {
				t.Errorf("table differs between Workers=1 and Workers=8:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", seq, par)
			}
		})
	}
}

// TestEveryExperimentDeterministicAcrossShards extends the guarantee to
// intra-trial sharding: Options.Shards is execution-only parallelism, so
// every registered experiment — whether it shards or ignores the knob —
// must produce byte-identical tables at Shards=1 and Shards=K, on pooled
// arenas (the default path, where each shard worker gets a sub-arena) and,
// at one K, on fresh worlds.
func TestEveryExperimentDeterministicAcrossShards(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base := renderTable(t, name, 2, 1, false)
			for _, shards := range []int{2, 4, 8} {
				got := renderTable(t, name, 2, shards, false)
				if got != base {
					t.Errorf("table differs between Shards=1 and Shards=%d:\n--- shards=1 ---\n%s--- shards=%d ---\n%s",
						shards, base, shards, got)
				}
			}
			if got := renderTable(t, name, 2, 4, true); got != base {
				t.Errorf("table differs between pooled Shards=1 and fresh Shards=4:\n--- pooled ---\n%s--- fresh ---\n%s", base, got)
			}
		})
	}
}

// TestTDMADeterministic extends the worker- and shard-independence
// guarantees to the slotted MAC. TDMA legitimately changes results versus
// CSMA (it reschedules every transmission), so there is no cross-scheme
// comparison — but equal Options must still give byte-identical tables at
// any worker count and any shard count, and the slot assignment must not
// perturb the pooled-arena contract.
func TestTDMADeterministic(t *testing.T) {
	for _, name := range []string{"fig6", "fig7", "mtrees", "scale"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opt := func(workers, shards int, fresh bool) Options {
				o := smallOptions(name, workers, shards, fresh)
				o.MAC = mac.SchemeTDMA
				return o
			}
			base := renderOpts(t, name, opt(1, 1, false))
			if got := renderOpts(t, name, opt(8, 1, false)); got != base {
				t.Errorf("TDMA table differs between Workers=1 and Workers=8:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", base, got)
			}
			for _, shards := range []int{2, 4} {
				if got := renderOpts(t, name, opt(1, shards, false)); got != base {
					t.Errorf("TDMA table differs between Shards=1 and Shards=%d:\n--- shards=1 ---\n%s--- shards=%d ---\n%s",
						shards, base, shards, got)
				}
			}
			if got := renderOpts(t, name, opt(1, 1, true)); got != base {
				t.Errorf("TDMA table differs between pooled and fresh worlds:\n--- pooled ---\n%s--- fresh ---\n%s", base, got)
			}
		})
	}
}

// TestEveryExperimentReuseMatchesFresh is the arena contract: resetting a
// worker's pooled world must be indistinguishable from building a fresh one,
// for every registered experiment. The FreshWorlds run constructs every
// deployment and protocol instance from scratch; the pooled run reuses one
// arena per worker across all of its trials. The tables must match
// structurally (reflect.DeepEqual over rows, columns, and notes).
func TestEveryExperimentReuseMatchesFresh(t *testing.T) {
	run := func(name string, fresh bool) *Table {
		o := Options{Sizes: []int{200, 300}, Trials: 2, Seed: 7, Workers: 2, FreshWorlds: fresh}
		if name == "indist" {
			o.Trials = 2000
		}
		tb, err := Run(name, o)
		if err != nil {
			t.Fatalf("%s fresh=%v: %v", name, fresh, err)
		}
		return tb
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pooled := run(name, false)
			fresh := run(name, true)
			if !reflect.DeepEqual(pooled, fresh) {
				var pb, fb bytes.Buffer
				pooled.Fprint(&pb)
				fresh.Fprint(&fb)
				t.Errorf("table differs between pooled arenas and fresh worlds:\n--- pooled ---\n%s--- fresh ---\n%s", pb.String(), fb.String())
			}
		})
	}
}

// TestCoalesceColumnsDeterministicAcrossWorkers pins the coalesced-framing
// option to the same scheduling-independence contract as everything else:
// equal Options with Coalesce set render byte-identical tables on one
// worker and on eight.
func TestCoalesceColumnsDeterministicAcrossWorkers(t *testing.T) {
	one := smallOptions("fig7", 1, 1, false)
	one.Coalesce = true
	eight := smallOptions("fig7", 8, 1, false)
	eight.Coalesce = true
	if a, b := renderOpts(t, "fig7", one), renderOpts(t, "fig7", eight); a != b {
		t.Errorf("fig7 with Coalesce differs between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s", a, b)
	}
}

// TestCoalesceDoesNotPerturbBaseColumns pins the option's isolation
// guarantee: the coalesced runs draw from their own rng splits, so every
// pre-existing cell of fig7 keeps its exact bytes when the extra columns
// ride along.
func TestCoalesceDoesNotPerturbBaseColumns(t *testing.T) {
	plain := smallOptions("fig7", 4, 1, false)
	with := plain
	with.Coalesce = true
	tp, err := Run("fig7", plain)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := Run("fig7", with)
	if err != nil {
		t.Fatal(err)
	}
	if len(tc.Columns) <= len(tp.Columns) {
		t.Fatalf("Coalesce added no columns: %d vs %d", len(tc.Columns), len(tp.Columns))
	}
	if !reflect.DeepEqual(tc.Columns[:len(tp.Columns)], tp.Columns) {
		t.Fatalf("base column headers changed: %v vs %v", tc.Columns[:len(tp.Columns)], tp.Columns)
	}
	if len(tc.Rows) != len(tp.Rows) {
		t.Fatalf("row count changed: %d vs %d", len(tc.Rows), len(tp.Rows))
	}
	for i, row := range tp.Rows {
		if !reflect.DeepEqual(tc.Rows[i][:len(row)], row) {
			t.Errorf("row %d base cells changed: %v vs %v", i, tc.Rows[i][:len(row)], row)
		}
	}
}
