package qtrace

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestNilTracerIsSafe pins the disabled-datapath contract: every method
// must be a no-op through a nil receiver.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	ref := tr.Start(1, None, 3, "x", 0)
	if ref != None {
		t.Fatalf("nil Start returned %d", ref)
	}
	tr.End(ref, 1)
	tr.SetParent(ref, 2)
	tr.SetPeer(ref, 4)
	tr.SetValue(ref, 5)
	tr.AddAir(ref, 0.1, 32)
	tr.AddRetry(ref)
	tr.AddBackoff(ref)
	tr.AddDrop(ref)
	tr.AddJoules(ref, 1e-6)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer leaked state")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL: %v, %q", err, buf.String())
	}
}

func TestAttribution(t *testing.T) {
	tr := New(0)
	root := tr.Start(1, None, -1, "round", 0)
	tx := tr.Start(1, root, 7, "slice", 0.5)
	tr.SetPeer(tx, 9)
	tr.AddAir(tx, 0.01, 40)
	tr.AddAir(tx, 0.01, 40)
	tr.AddRetry(tx)
	tr.AddBackoff(tx)
	tr.AddJoules(tx, 8e-5)
	tr.End(tx, 0.9)
	tr.End(tx, 0.7) // End never shrinks
	s := tr.Spans()[1]
	if s.Parent != uint32(root) || s.Peer != 9 || s.Frames != 2 || s.Bytes != 80 ||
		s.Retries != 1 || s.Backoffs != 1 || s.Airtime != 0.02 || s.End != 0.9 {
		t.Fatalf("attribution wrong: %+v", s)
	}
	// Attribution against None and out-of-range refs is ignored.
	tr.AddAir(None, 1, 1)
	tr.AddAir(Ref(99), 1, 1)
	if tr.Spans()[0].Frames != 0 {
		t.Fatal("misdirected attribution")
	}
}

func TestLimitAndDropped(t *testing.T) {
	tr := New(2)
	tr.Start(1, None, 0, "a", 0)
	tr.Start(1, None, 0, "b", 0)
	if ref := tr.Start(1, None, 0, "c", 0); ref != None {
		t.Fatalf("over-limit Start returned %d", ref)
	}
	if tr.Len() != 2 || tr.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	st := NewStore(4)
	tr := st.Trial("fig7", 1, 2).Tracer("l1")
	r := tr.Start(3, None, -1, "round", 0)
	tr.Start(3, r, 5, "slice", 0.25)
	for i := 0; i < 4; i++ {
		tr.Start(3, r, 0, "x", 0) // overflow the limit
	}
	var buf bytes.Buffer
	if err := st.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines, dropped, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 || dropped != 2 {
		t.Fatalf("lines=%d dropped=%d", len(lines), dropped)
	}
	if lines[0].Sweep != "fig7" || lines[0].Point != 1 || lines[0].Trial != 2 || lines[0].Slot != "l1" {
		t.Fatalf("coordinates lost: %+v", lines[0])
	}
	if lines[1].Name != "slice" || lines[1].Parent != uint32(r) || lines[1].Node != 5 {
		t.Fatalf("span lost: %+v", lines[1])
	}
}

func TestStoreExportDeterministic(t *testing.T) {
	build := func(order []int) string {
		st := NewStore(0)
		for _, p := range order {
			tr := st.Trial("s", p, 0).Tracer("a")
			tr.Start(uint32(p), None, int32(p), "round", float64(p))
		}
		var buf bytes.Buffer
		if err := st.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if build([]int{0, 1, 2}) != build([]int{2, 0, 1}) {
		t.Fatal("export depends on creation order")
	}
}

func TestTextAndHealth(t *testing.T) {
	tr := New(0)
	round := tr.Start(1, None, -1, "round", 0)
	dead := tr.Instant(1, round, -1, "tree:dead", 0)
	tr.SetValue(dead, 3)
	verify := tr.Start(1, round, 0, "verify:accepted", 9)
	a1 := tr.Start(1, verify, 4, "aggregate:red", 7)
	tr.AddAir(a1, 0.01, 24)
	tr.AddRetry(a1)
	tr.End(a1, 8)
	a2 := tr.Start(1, a1, 11, "aggregate:red", 5)
	tr.AddAir(a2, 0.01, 24)
	tr.End(a2, 6)

	var txt bytes.Buffer
	if err := WriteText(&txt, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "round") || !strings.Contains(txt.String(), "  verify:accepted") {
		t.Fatalf("text tree:\n%s", txt.String())
	}

	hs := Analyze(tr.Spans())
	if len(hs) != 1 {
		t.Fatalf("rounds=%d", len(hs))
	}
	h := hs[0]
	if h.Verdict != "accepted" || h.Dead != 3 {
		t.Fatalf("health: %+v", h)
	}
	if len(h.Subtrees) != 1 {
		t.Fatalf("subtrees: %+v", h.Subtrees)
	}
	st := h.Subtrees[0]
	if st.Root != 4 || st.Tree != "red" || st.Nodes != 2 || st.Frames != 2 || st.Retries != 1 {
		t.Fatalf("subtree rollup: %+v", st)
	}
	// Critical path: verify -> a1 (End 8) -> a2 (End 6).
	if len(h.CriticalPath) != 3 || h.CriticalPath[1].Node != 4 || h.CriticalPath[2].Node != 11 {
		t.Fatalf("critical path: %+v", h.CriticalPath)
	}

	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"traceEvents"`) {
		t.Fatalf("chrome trace:\n%s", chrome.String())
	}
}

// TestAnalyzeParentCycle is the regression test for a hand-edited file
// whose parent links form a cycle (round -> verify -> aggregate ->
// round): the subtree rollup used to recurse until the stack overflowed.
func TestAnalyzeParentCycle(t *testing.T) {
	f, err := os.Open("testdata/cycle.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines, _, err := ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	spans, _ := GroupByTrial(lines)
	hs := Analyze(spans["run"])
	if len(hs) != 1 || len(hs[0].Subtrees) != 1 {
		t.Fatalf("health: %+v", hs)
	}
	if st := hs[0].Subtrees[0]; st.Root != 5 || st.Nodes != 1 {
		t.Fatalf("subtree rollup: %+v", st)
	}
	var buf bytes.Buffer
	if err := WriteHealth(&buf, spans["run"]); err != nil {
		t.Fatal(err)
	}
}

// TestReadJSONLRejectsNonSpans pins the reader's format check: a record
// that is neither a drop trailer nor a span (an old radio-timeline event,
// any other object, a span without an ID or name) is an error naming
// its record number, never a silently zeroed span.
func TestReadJSONLRejectsNonSpans(t *testing.T) {
	span := `{"id":1,"node":-1,"name":"round","begin":0,"end":1}` + "\n"
	for _, tc := range []struct{ name, bad string }{
		{"timeline event", `{"t":1.5,"kind":"rx","node":3,"detail":"SLICE 2->3"}`},
		{"other object", `{"foo":1}`},
		{"no id", `{"node":2,"name":"slice","begin":0,"end":1}`},
		{"no name", `{"id":2,"node":2,"begin":0,"end":1}`},
		{"syntax", `{"id":2,`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadJSONL(strings.NewReader(span + `{"dropped":1}` + "\n" + tc.bad + "\n"))
			if err == nil || !strings.Contains(err.Error(), "record 3") {
				t.Fatalf("err = %v, want an error naming record 3", err)
			}
		})
	}
	lines, dropped, err := ReadJSONL(strings.NewReader(span + `{"dropped":4}` + "\n"))
	if err != nil || len(lines) != 1 || dropped != 4 {
		t.Fatalf("valid file: lines=%d dropped=%d err=%v", len(lines), dropped, err)
	}
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	tr := New(0)
	tr.End(tr.Start(0, None, -1, "phase1:tree-construction", 0), 2.5)
	round := tr.Start(1, None, -1, "round", 3)
	tr.End(round, 4)
	tr.End(tr.Start(1, round, 7, "slicing", 3.0), 3.2)
	tr.Instant(1, round, 7, "slice:assembled", 3.05)
	tr.Instant(1, round, 2, "a\"b\\c\n", 3.1)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string          `json:"ph"`
			Name string          `json:"name"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			S    string          `json:"s"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 3 threads x (thread_name + thread_sort_index) + 5 events.
	if len(doc.TraceEvents) != 11 {
		t.Fatalf("got %d trace events, want 11:\n%s", len(doc.TraceEvents), buf.String())
	}
	// Metadata comes first, sorted by thread, network (tid 0) first.
	for i, want := range []struct {
		name string
		tid  int
	}{
		{"thread_name", 0}, {"thread_name", 3}, {"thread_name", 8},
		{"thread_sort_index", 0}, {"thread_sort_index", 3}, {"thread_sort_index", 8},
	} {
		ev := doc.TraceEvents[i]
		if ev.Ph != "M" || ev.Name != want.name || ev.Tid != want.tid {
			t.Fatalf("metadata %d = %+v, want %s on tid %d", i, ev, want.name, want.tid)
		}
	}
	if !strings.Contains(string(doc.TraceEvents[0].Args), `"network"`) ||
		!strings.Contains(string(doc.TraceEvents[2].Args), `"node 7"`) {
		t.Fatalf("thread labels: %s, %s", doc.TraceEvents[0].Args, doc.TraceEvents[2].Args)
	}
	var sawSpan, sawInstant, sawEscaped bool
	for _, ev := range doc.TraceEvents[6:] {
		switch ev.Ph {
		case "X":
			sawSpan = true
			if ev.Name == "slicing" {
				if ev.Tid != 8 { // node 7 -> tid 8
					t.Fatalf("slicing span tid = %d, want 8", ev.Tid)
				}
				if math.Abs(ev.Ts-3.0e6) > 1e-6 || math.Abs(ev.Dur-0.2e6) > 1e-3 {
					t.Fatalf("slicing span ts/dur = %v/%v", ev.Ts, ev.Dur)
				}
				if !strings.Contains(string(ev.Args), `"round":1`) {
					t.Fatalf("slicing span args = %s", ev.Args)
				}
			}
			if ev.Name == "phase1:tree-construction" && (ev.Tid != 0 || ev.Args != nil) {
				t.Fatalf("phase I span = %+v, want tid 0 and no round", ev)
			}
		case "i":
			sawInstant = true
			if ev.S != "t" {
				t.Fatalf("instant scope = %q, want t", ev.S)
			}
			sawEscaped = sawEscaped || ev.Name == "a\"b\\c\n"
		default:
			t.Fatalf("unexpected event after metadata: %+v", ev)
		}
	}
	if !sawSpan || !sawInstant || !sawEscaped {
		t.Fatalf("missing events: span=%v instant=%v escaped=%v", sawSpan, sawInstant, sawEscaped)
	}
}
