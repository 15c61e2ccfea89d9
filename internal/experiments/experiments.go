// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV), plus the ablations DESIGN.md calls out.
//
// Each experiment function declares its sweep — the paper's parameter
// axis and a per-trial function — on the internal/harness engine, which
// flattens (point × trial) onto one worker pool and derives every trial's
// random stream along the seed path root → experiment ID → point → trial.
// The result is a Table whose rows mirror what the paper plots: the x
// axis in the first column and one column per curve. cmd/ipda-bench
// prints them; EXPERIMENTS.md records a reference run against the paper's
// reported shapes. Equal Options give byte-identical tables regardless of
// Workers.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/harness"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/qtrace"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/tag"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/world"
)

// Options control an experiment sweep.
type Options struct {
	// Sizes is the network-size axis; nil selects the paper's
	// {200, 300, 400, 500, 600}.
	Sizes []int
	// Trials is the number of independent deployments per point; 0
	// selects each experiment's default (the paper uses 50 for Figure 6).
	Trials int
	// Seed drives all randomness; equal options give equal tables.
	Seed uint64
	// Workers bounds trial parallelism; 0 selects GOMAXPROCS.
	Workers int
	// Shards bounds intra-trial parallelism for experiments that run one
	// sharded simulation per trial (the scale experiments); 0 selects 1.
	// Execution-only: tables are byte-identical for every Shards value.
	Shards int
	// Progress, when non-nil, receives (trialsDone, trialsTotal) after
	// each completed trial of each sweep the experiment runs.
	Progress func(done, total int)
	// Obs, when non-nil, collects harness throughput metrics for every
	// sweep the experiment runs (see harness.Sweep.Obs). Metric values
	// never enter the Table output, so tables stay byte-identical with
	// and without a sink.
	Obs *obs.Sink
	// QTrace, when non-nil, collects causal per-query traces for every
	// sweep the experiment runs (see harness.Sweep.QTrace). Tracing is
	// read-only: tables are byte-identical with and without a store, and
	// the exported trace is byte-identical for every Workers and Shards
	// value.
	QTrace *qtrace.Store
	// FreshWorlds disables the per-worker simulation arenas: every trial
	// constructs its deployment and protocol instances from scratch
	// instead of resetting the worker's pooled ones. Output is identical
	// either way (the arenas' contract); this exists for A/B verification
	// and leak hunting.
	FreshWorlds bool
	// MAC selects the channel-access scheme: the zero value is the
	// paper's CSMA, mac.SchemeTDMA the contention-free slotted schedule.
	// This is a modelling change — TDMA alters timing, so tables
	// legitimately differ from the CSMA goldens (while remaining
	// deterministic across workers and shards).
	MAC mac.Scheme
	// Coalesce grows the overhead experiments (fig7) with extra columns
	// measured under slice-coalesced framing (core.Config.Coalesce): the
	// coalesced runs draw from their own rng splits, so the existing
	// columns stay byte-identical to a run without the option. Off by
	// default so every recorded table keeps its exact shape.
	Coalesce bool
}

// coreConfig is core.DefaultConfig with the options' MAC scheme applied;
// experiments build their per-trial configs from it.
func (o Options) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MAC.Scheme = o.MAC
	return cfg
}

// tagConfig is tag.DefaultConfig with the options' MAC scheme applied.
func (o Options) tagConfig() tag.Config {
	cfg := tag.DefaultConfig()
	cfg.MAC.Scheme = o.MAC
	return cfg
}

func (o Options) sizes() []int {
	if len(o.Sizes) == 0 {
		return []int{200, 300, 400, 500, 600}
	}
	return o.Sizes
}

func (o Options) shards() int {
	if o.Shards < 1 {
		return 1
	}
	return o.Shards
}

func (o Options) trials(def int) int {
	if o.Trials <= 0 {
		return def
	}
	return o.Trials
}

// sweep builds the harness sweep for an experiment: id roots the seed
// path, points is the axis length, and def is the experiment's default
// trial count (overridden by Options.Trials).
func (o Options) sweep(id string, points, def int) harness.Sweep {
	s := harness.Sweep{
		ID:       id,
		Seed:     o.Seed,
		Points:   points,
		Trials:   o.trials(def),
		Workers:  o.Workers,
		Progress: o.Progress,
		Obs:      o.Obs,
		QTrace:   o.QTrace,
	}
	if !o.FreshWorlds {
		s.WorkerState = func() any { return world.New() }
	}
	return s
}

// fixedSweep is sweep with a trial count the user cannot override, for
// experiments whose per-point work is not a Monte-Carlo repetition.
func (o Options) fixedSweep(id string, points, trials int) harness.Sweep {
	s := o.sweep(id, points, trials)
	s.Trials = trials
	return s
}

// Table is one experiment's output: the rows the paper's table or figure
// reports.
type Table struct {
	ID      string // experiment id from DESIGN.md, e.g. "fig6"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row. Missing cells print empty; passing more
// cells than Columns is a programmer error (the extra cells would be
// silently invisible in every output format) and panics.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.Columns) {
		panic(fmt.Sprintf("experiments: AddRow got %d cells for %d columns in table %q",
			len(cells), len(t.Columns), t.ID))
	}
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(t.Columns))
		for i := range t.Columns {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as RFC 4180 CSV (header row first). Notes are
// not emitted — CSV is for plotting pipelines.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		cells := make([]string, len(t.Columns))
		copy(cells, row)
		if err := cw.Write(cells); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// deployment builds the paper's uniform random deployment for one trial,
// through the trial worker's arena when the sweep carries one.
func deployment(tr *harness.T, nodes int, r *rng.Stream) (*topology.Network, error) {
	return world.FromTrial(tr).Deploy(topology.PaperConfig(nodes), r)
}

// f formats a float compactly for table cells.
func f(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// d formats an integer cell.
func d(v int64) string { return fmt.Sprintf("%d", v) }
