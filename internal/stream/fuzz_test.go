package stream

import (
	"testing"

	"github.com/ipda-sim/ipda/internal/aggregate"
	"github.com/ipda-sim/ipda/internal/core"
)

// FuzzSchedule drives New and Run with arbitrary standing-query
// schedules: a small epoch count and one to three (1 + nq%3) SUM queries
// with any Phase, Period and Window. New must reject exactly the invalid
// configs, neither call may panic (or exhaust memory on an unreachable
// window), and each query must fire on exactly the epochs e with
//
//	e >= Phase && (e-Phase) % Period == 0 && e+1 >= Window
//
// — its schedule matches and a full window of readings exists.
func FuzzSchedule(f *testing.F) {
	day := DayQueries(4)
	seed := func(qs []Query) {
		var p [3][3]int
		for i, q := range qs {
			p[i] = [3]int{q.Phase, q.Period, q.Window}
		}
		f.Add(int8(12), uint8(len(qs)-1),
			p[0][0], p[0][1], p[0][2], p[1][0], p[1][1], p[1][2], p[2][0], p[2][1], p[2][2])
	}
	seed(day[:3])
	seed(day[1:])
	// A window no 4-epoch run can fill once sized the readings ring.
	f.Add(int8(4), uint8(0), 0, 1, 1<<40, 0, 0, 0, 0, 0, 0)

	var in *core.Instance
	f.Fuzz(func(t *testing.T, epochs int8, nq uint8,
		ph0, pe0, w0, ph1, pe1, w1, ph2, pe2, w2 int) {
		cfg := Config{Epochs: int(epochs) % 13, Interval: 60, Readings: readingAt}
		params := [3][3]int{{ph0, pe0, w0}, {ph1, pe1, w1}, {ph2, pe2, w2}}
		valid := cfg.Epochs > 0
		for _, p := range params[:1+int(nq)%3] {
			q := Query{Kind: aggregate.Sum, Phase: p[0], Period: p[1], Window: p[2]}
			valid = valid && q.Phase >= 0 && q.Period >= 1 && q.Window >= 1
			cfg.Queries = append(cfg.Queries, q)
		}
		if in == nil {
			in = randomDeploy(t, 100, 1, core.DefaultConfig())
		}
		p, err := New(in, cfg)
		if (err == nil) != valid {
			t.Fatalf("New(%+v) error = %v, want valid=%v", cfg, err, valid)
		}
		if err != nil {
			return
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		var want []QueryOutcome
		for e := 0; e < cfg.Epochs; e++ {
			for qi, q := range cfg.Queries {
				if e >= q.Phase && (e-q.Phase)%q.Period == 0 && e+1 >= q.Window {
					want = append(want, QueryOutcome{Epoch: e, Query: qi})
				}
			}
		}
		if len(res.Queries) != len(want) {
			t.Fatalf("%d firings, want %d (%+v)", len(res.Queries), len(want), cfg.Queries)
		}
		for i, got := range res.Queries {
			if got.Epoch != want[i].Epoch || got.Query != want[i].Query {
				t.Fatalf("firing %d is query %d at epoch %d, want query %d at epoch %d",
					i, got.Query, got.Epoch, want[i].Query, want[i].Epoch)
			}
		}
	})
}
