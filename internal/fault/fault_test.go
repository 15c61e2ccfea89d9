package fault

import (
	"reflect"
	"strings"
	"testing"

	"github.com/ipda-sim/ipda/internal/topology"
)

// recorder captures the Kill/Revive call sequence.
type recorder struct {
	log []string
}

func (r *recorder) Kill(id topology.NodeID)   { r.log = append(r.log, "kill:"+itoa(int(id))) }
func (r *recorder) Revive(id topology.NodeID) { r.log = append(r.log, "revive:"+itoa(int(id))) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestScriptedEvents(t *testing.T) {
	cfg := Config{Events: []Event{
		{Round: 0, Kind: Crash, Node: 3},
		{Round: 2, Kind: Recover, Node: 3},
		{Round: 2, Kind: Crash, Node: 5},
	}}
	inj, err := NewInjector(10, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	for r := 0; r < 4; r++ {
		inj.Advance(r, 0, rec)
	}
	want := []string{"kill:3", "revive:3", "kill:5"}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("event log %v, want %v", rec.log, want)
	}
	if !inj.down[5] || inj.down[3] {
		t.Fatalf("down state wrong: down(5)=%v down(3)=%v", inj.down[5], inj.down[3])
	}
	if inj.DeadCount() != 1 {
		t.Fatalf("DeadCount = %d, want 1", inj.DeadCount())
	}
}

func TestChurnIsDeterministic(t *testing.T) {
	run := func() []string {
		inj, err := NewInjector(50, Config{CrashRate: 0.2, RecoverRate: 0.5, Seed: 42}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{}
		for r := 0; r < 20; r++ {
			inj.Advance(r, 0, rec)
		}
		return rec.log
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("20% churn over 20 rounds produced no faults")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same schedule produced different traces")
	}
}

func TestChurnRatesAreHonored(t *testing.T) {
	inj, err := NewInjector(1000, Config{CrashRate: 0.1, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	inj.Advance(0, 0, rec)
	// ~999 live unprotected nodes, 10% crash rate: expect near 100.
	if c := len(rec.log); c < 60 || c > 150 {
		t.Fatalf("first-round crashes = %d, want near 100", c)
	}
	// With no recovery, dead nodes stay dead and crashes accumulate.
	inj.Advance(1, 0, rec)
	for _, l := range rec.log {
		if !strings.HasPrefix(l, "kill:") {
			t.Fatalf("%s without RecoverRate", l)
		}
	}
	if inj.DeadCount() != len(rec.log) {
		t.Fatalf("DeadCount %d != crashes %d with no recovery", inj.DeadCount(), len(rec.log))
	}
}

func TestProtectedNodesNeverCrash(t *testing.T) {
	cfg := Config{CrashRate: 0.5, Seed: 3, Events: []Event{{Round: 0, Kind: Crash, Node: 0}}}
	inj, err := NewInjector(20, cfg, []topology.NodeID{7})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	for r := 0; r < 30; r++ {
		inj.Advance(r, 0, rec)
	}
	if inj.down[0] || inj.down[7] {
		t.Fatalf("protected node crashed: down(0)=%v down(7)=%v", inj.down[0], inj.down[7])
	}
	for _, l := range rec.log {
		if l == "kill:0" || l == "kill:7" {
			t.Fatalf("protected node killed: %v", rec.log)
		}
	}
}

func TestRecoverRateRevives(t *testing.T) {
	cfg := Config{RecoverRate: 1, Seed: 9, Events: []Event{{Round: 0, Kind: Crash, Node: 4}}}
	inj, err := NewInjector(10, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	inj.Advance(0, 0, rec)
	if !inj.down[4] {
		t.Fatal("scripted crash not applied")
	}
	inj.Advance(1, 0, rec)
	if inj.down[4] {
		t.Fatal("RecoverRate=1 did not revive at the next round")
	}
}

func TestAdvanceOutOfOrderPanics(t *testing.T) {
	inj, err := NewInjector(5, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order Advance")
		}
	}()
	inj.Advance(2, 0, &recorder{})
}

func TestValidation(t *testing.T) {
	cases := []Config{
		{CrashRate: -0.1},
		{CrashRate: 1},
		{RecoverRate: -1},
		{RecoverRate: 1.5},
		{Events: []Event{{Round: -1, Kind: Crash, Node: 1}}},
		{Events: []Event{{Round: 0, Kind: Kind(9), Node: 1}}},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	if _, err := NewInjector(4, Config{Events: []Event{{Round: 0, Kind: Crash, Node: 4}}}, nil); err == nil {
		t.Fatal("out-of-range event node accepted")
	}
	if (Config{}).Enabled() {
		t.Fatal("zero config reports Enabled")
	}
	if !(Config{CrashRate: 0.1}).Enabled() || !(Config{Events: []Event{{}}}).Enabled() {
		t.Fatal("non-trivial config reports disabled")
	}
}

func TestStatsCountFaults(t *testing.T) {
	cfg := Config{Events: []Event{
		{Round: 0, Kind: Crash, Node: 1},
		{Round: 1, Kind: Recover, Node: 1},
		{Round: 1, Kind: Crash, Node: 2},
		{Round: 1, Kind: Crash, Node: 2}, // already down: not counted
	}}
	inj, err := NewInjector(4, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	inj.Advance(0, 0.5, rec)
	inj.Advance(1, 1.5, rec)
	if got := inj.Stats(); got != (Stats{Crashes: 2, Recoveries: 1}) {
		t.Fatalf("fault counters %+v, want 2 crashes and 1 recovery", got)
	}
	if d := inj.DeadCount(); d != 1 {
		t.Fatalf("DeadCount = %d after the recovery, want 1", d)
	}
}
