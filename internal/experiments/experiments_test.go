package experiments

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// small returns options that keep each experiment fast enough for the
// unit-test suite while exercising the full code path.
func small() Options {
	return Options{Sizes: []int{200, 400}, Trials: 2, Seed: 42}
}

// cell parses a table cell as float.
func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestRegistryRunsEverything(t *testing.T) {
	opts := small()
	opts.Trials = 1
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			o := opts
			if name == "indist" {
				o.Trials = 2000
			}
			tb, err := Run(name, o)
			if err != nil {
				t.Fatal(err)
			}
			if tb.ID != name {
				t.Fatalf("table ID %q for experiment %q", tb.ID, name)
			}
			if len(tb.Rows) == 0 {
				t.Fatal("no rows")
			}
			var buf bytes.Buffer
			tb.Fprint(&buf)
			if !strings.Contains(buf.String(), tb.Title) {
				t.Fatal("Fprint lost the title")
			}
		})
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", small()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable1Shape(t *testing.T) {
	tb, err := Table1(small())
	if err != nil {
		t.Fatal(err)
	}
	// Simulated degree grows with N and sits below the analytic column.
	if cell(t, tb, 0, 1) >= cell(t, tb, 1, 1) {
		t.Fatal("degree not increasing with N")
	}
	for r := range tb.Rows {
		if cell(t, tb, r, 1) >= cell(t, tb, r, 3)+1 {
			t.Fatalf("row %d: simulated degree above analytic", r)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	o := small()
	o.Trials = 2
	tb, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	last := len(tb.Rows) - 1
	// Monotone in p_x, and l=3 below l=2 at the top of the range.
	if cell(t, tb, 0, 1) >= cell(t, tb, last, 1) {
		t.Fatal("P_disclose not increasing in p_x")
	}
	if cell(t, tb, last, 3) >= cell(t, tb, last, 1) {
		t.Fatal("l=3 not below l=2")
	}
}

func TestFig6Shape(t *testing.T) {
	o := small()
	o.Trials = 3
	tb, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	for r := range tb.Rows {
		perfect := cell(t, tb, r, 5)
		red2 := cell(t, tb, r, 3)
		blue2 := cell(t, tb, r, 4)
		if red2 > perfect*1.02 || blue2 > perfect*1.02 {
			t.Fatalf("row %d: tree totals exceed perfect: %v/%v vs %v", r, red2, blue2, perfect)
		}
		meanDiff := cell(t, tb, r, 6)
		if meanDiff > perfect*0.15 {
			t.Fatalf("row %d: congested mean |Sb-Sr| = %v too large", r, meanDiff)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	o := small()
	o.Trials = 2
	tb, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	for r := range tb.Rows {
		nodes := cell(t, tb, r, 0)
		if nodes < 350 {
			// Below ~300 nodes iPDA participation collapses (Sec. IV-B),
			// so the byte ordering versus TAG does not hold — exactly the
			// sub-linear region the paper describes.
			continue
		}
		tagBytes := cell(t, tb, r, 1)
		l1 := cell(t, tb, r, 2)
		l2 := cell(t, tb, r, 3)
		if !(tagBytes < l1 && l1 < l2) {
			t.Fatalf("row %d: byte ordering TAG < l1 < l2 violated: %v %v %v", r, tagBytes, l1, l2)
		}
		ratio2 := cell(t, tb, r, 8)
		if ratio2 < 1.8 || ratio2 > 3.6 {
			t.Fatalf("row %d: l=2 frame ratio %v far from (2l+1)/2 = 2.5", r, ratio2)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	o := small()
	o.Trials = 2
	tb, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	// Dense row (400 nodes) must beat the sparse row (200 nodes) on
	// coverage and accuracy.
	if cell(t, tb, 0, 1) > cell(t, tb, 1, 1) {
		t.Fatal("coverage not improving with density")
	}
	for r := range tb.Rows {
		cov := cell(t, tb, r, 1)
		p2 := cell(t, tb, r, 3)
		if p2 > cov+1e-9 {
			t.Fatalf("row %d: participation above coverage", r)
		}
		for c := 4; c <= 6; c++ {
			acc := cell(t, tb, r, c)
			if acc < 0 || acc > 1.05 {
				t.Fatalf("row %d col %d: accuracy %v out of range", r, c, acc)
			}
		}
	}
	// At N=400 everything should be healthy.
	if cell(t, tb, 1, 6) < 0.9 || cell(t, tb, 1, 5) < 0.8 {
		t.Fatal("dense-network accuracy too low")
	}
}

func TestPollutionDetects(t *testing.T) {
	o := small()
	o.Trials = 3
	tb, err := Pollution(o)
	if err != nil {
		t.Fatal(err)
	}
	// delta=0 row reports false rejects; large deltas detected at rate 1.
	lastRow := len(tb.Rows) - 1
	if got := cell(t, tb, lastRow, 1); got < 0.99 {
		t.Fatalf("blatant pollution detected at rate %v", got)
	}
	if fr := cell(t, tb, 0, 2); fr > 0.35 {
		t.Fatalf("false-reject rate %v", fr)
	}
}

func TestOverheadTable(t *testing.T) {
	tb, err := Overhead(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, tb, 1, 3) != 2.5 {
		t.Fatal("l=2 ratio != 2.5")
	}
}

func TestLAblationShape(t *testing.T) {
	tb, err := LAblation(Options{Trials: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Disclosure falls sharply from l=1 to l=2; bytes rise with l.
	d1, d2 := cell(t, tb, 0, 1), cell(t, tb, 1, 1)
	if d2 >= d1/3 {
		t.Fatalf("l=2 disclosure %v not well below l=1 %v", d2, d1)
	}
	for r := 1; r < len(tb.Rows); r++ {
		if cell(t, tb, r, 2) <= cell(t, tb, r-1, 2) {
			t.Fatalf("bytes not increasing with l at row %d", r)
		}
	}
}

func TestKeysShape(t *testing.T) {
	tb, err := Keys(Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// EG rows: induced p_x grows with ring size and tracks ring/pool.
	px50 := cell(t, tb, 0, 3)
	px100 := cell(t, tb, 1, 3)
	px200 := cell(t, tb, 2, 3)
	if !(px50 < px100 && px100 < px200) {
		t.Fatalf("EG p_x not increasing with ring: %v %v %v", px50, px100, px200)
	}
	if px100 < 0.07 || px100 > 0.13 {
		t.Fatalf("EG ring-100 p_x = %v, want ~0.1", px100)
	}
	// q-composite with the same ring crushes exposure by orders of
	// magnitude.
	qc100 := cell(t, tb, 3, 3)
	if qc100 > px100/100 {
		t.Fatalf("q-composite p_x %v not well below EG %v", qc100, px100)
	}
}

func TestLifetimeShape(t *testing.T) {
	o := small()
	o.Trials = 1
	tb, err := Lifetime(o)
	if err != nil {
		t.Fatal(err)
	}
	for r := range tb.Rows {
		if cell(t, tb, r, 0) < 350 {
			// Below ~300 nodes iPDA participation collapses (Sec. IV-B),
			// so few sensors transmit and the bottleneck drain comparison
			// is noise — same sparse region TestFig7Shape skips.
			continue
		}
		tagLife := cell(t, tb, r, 3)
		ipdaLife := cell(t, tb, r, 4)
		ratio := cell(t, tb, r, 5)
		if tagLife <= ipdaLife {
			t.Fatalf("row %d: TAG lifetime %v not above iPDA %v", r, tagLife, ipdaLife)
		}
		// The privacy+integrity price: roughly the (2l+1)/2-to-byte-ratio
		// band, 1.5x-5x.
		if ratio < 1.5 || ratio > 5 {
			t.Fatalf("row %d: lifetime ratio %v outside plausible band", r, ratio)
		}
	}
}

func TestAddRowRejectsExtraCells(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	tb.AddRow("1", "2") // exact width ok
	tb.AddRow("1")      // short row ok (pads on output)
	defer func() {
		if recover() == nil {
			t.Fatal("AddRow accepted more cells than columns")
		}
	}()
	tb.AddRow("1", "2", "dropped-before-this-fix")
}

func TestTableWriteCSV(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	tb.AddRow("1", "2")
	tb.AddRow("3") // short row pads
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestTableFprintAlignment(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Columns: []string{"a", "long-column"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Title line + header + 2 rows.
	if len(lines) != 4 {
		t.Fatalf("unexpected output: %q", buf.String())
	}
	if !strings.Contains(lines[1], "long-column") {
		t.Fatalf("header missing: %q", lines[1])
	}
}

// TestIndistRingMatchesTheory checks Eq. (11) through the harness and the
// table path: at the default 20,000 games per cell, every full-ring
// advantage in the indist table must lie within 4σ of its theory column
// ε = 1 − (1 − p_x^l)². A game is won with probability p = (1+ε)/2 and
// the cell reports 2p̂−1 over T games, whose binomial standard error is
// σ = √(4p(1−p)/T) = √((1−ε²)/T). With 10 cells the chance that a correct
// implementation strays past 4σ in any of them is below 10⁻³.
func TestIndistRingMatchesTheory(t *testing.T) {
	const games = 20000
	tb, err := Indistinguishability(Options{Seed: 2024})
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, c := range tb.Columns {
		col[c] = i
	}
	for _, l := range []string{"2", "3"} {
		ring, okR := col["ring l="+l]
		theory, okT := col["theory l="+l]
		if !okR || !okT {
			t.Fatalf("table lacks the l=%s ring/theory columns: %v", l, tb.Columns)
		}
		for row := range tb.Rows {
			got, eps := cell(t, tb, row, ring), cell(t, tb, row, theory)
			sigma := math.Sqrt((1 - eps*eps) / games)
			if math.Abs(got-eps) > 4*sigma {
				t.Errorf("p_x=%s l=%s: advantage %v, theory %v, |diff| %.4g > 4σ = %.4g",
					tb.Rows[row][0], l, got, eps, math.Abs(got-eps), 4*sigma)
			}
		}
	}
}
