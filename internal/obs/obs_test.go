package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ipda_radio_tx_total", "frames sent", Label{"kind", "hello"})
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %v, want 5", got)
	}
	// Re-registering the same (name, labels) resolves the same cell.
	c2 := r.Counter("ipda_radio_tx_total", "frames sent", Label{"kind", "hello"})
	c2.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("after aliased Inc, counter = %v, want 6", got)
	}
	g := r.Gauge("ipda_mac_queue_depth", "queue depth")
	g.Set(3)
	g.Set(2)
	if got := g.s.val; got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestZeroHandlesAreNoOps(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	c.Inc()
	c.Add(2)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.s != nil {
		t.Fatalf("zero handles must read 0")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ipda_mac_queue_len", "queue length at enqueue", []float64{1, 2, 4})
	for _, v := range []float64{0, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.s
	want := []uint64{2, 1, 1, 1} // <=1: {0,1}; <=2: {1.5}; <=4: {3}; +Inf: {100}
	for i, w := range want {
		if s.buckets[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, s.buckets[i], w)
		}
	}
	if s.count != 5 || s.sum != 105.5 {
		t.Fatalf("count/sum = %d/%v, want 5/105.5", s.count, s.sum)
	}
}

func TestRegisterPanicsOnMismatch(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("m", "help", Label{"a", "x"})
	mustPanic("type change", func() { r.Gauge("m", "help", Label{"a", "x"}) })
	mustPanic("label count", func() { r.Counter("m", "help") })
	mustPanic("label name", func() { r.Counter("m", "help", Label{"b", "x"}) })
	r.Histogram("h", "help", []float64{1, 2})
	mustPanic("bounds change", func() { r.Histogram("h", "help", []float64{1, 2, 3}) })
	mustPanic("descending bounds", func() { r.Histogram("h2", "help", []float64{2, 1}) })
	mustPanic("empty name", func() { r.Counter("", "help") })
}

// Hot-path updates on resolved handles must not allocate: the simulator's
// 0 allocs/op benchmarks hold even with instrumentation enabled.
func TestUpdatesAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "h", Label{"k", "v"})
	g := r.Gauge("g", "h")
	h := r.Histogram("hist", "h", []float64{1, 10, 100})
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		h.Observe(7)
	}); n != 0 {
		t.Fatalf("metric updates allocate %v/op, want 0", n)
	}
}

func TestWritePromDeterministicAndParses(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Register in scrambled order; export must sort.
		r.Counter("zz_total", "last family").Add(3)
		c := r.Counter("ipda_radio_tx_bytes_total", "bytes sent", Label{"kind", "slice"})
		c.Add(1234)
		r.Counter("ipda_radio_tx_bytes_total", "bytes sent", Label{"kind", "hello"}).Add(42)
		r.Gauge("ipda_energy_joules", "per-component energy", Label{"component", "tx"}).Set(0.125)
		h := r.Histogram("ipda_mac_queue_len", "queue length", []float64{1, 4})
		h.Observe(0)
		h.Observe(2)
		h.Observe(9)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("equal registries exported differently:\n%s\nvs\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{
		"# TYPE ipda_radio_tx_bytes_total counter",
		`ipda_radio_tx_bytes_total{kind="hello"} 42`,
		`ipda_radio_tx_bytes_total{kind="slice"} 1234`,
		"# TYPE ipda_mac_queue_len histogram",
		`ipda_mac_queue_len_bucket{le="1"} 1`,
		`ipda_mac_queue_len_bucket{le="4"} 2`,
		`ipda_mac_queue_len_bucket{le="+Inf"} 3`,
		"ipda_mac_queue_len_sum 11",
		"ipda_mac_queue_len_count 3",
		`ipda_energy_joules{component="tx"} 0.125`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q:\n%s", want, out)
		}
	}
	// Series within a family sort by label values, independent of
	// registration order.
	if strings.Index(out, `kind="hello"`) > strings.Index(out, `kind="slice"`) {
		t.Fatalf("series not sorted by label values:\n%s", out)
	}

	parsed, err := ParseProm(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ParseProm rejected our own export: %v", err)
	}
	if parsed[`ipda_radio_tx_bytes_total{kind="slice"}`] != 1234 {
		t.Fatalf("parsed slice bytes = %v, want 1234", parsed[`ipda_radio_tx_bytes_total{kind="slice"}`])
	}
	if parsed[`ipda_mac_queue_len_bucket{le="+Inf"}`] != 3 {
		t.Fatalf("parsed +Inf bucket = %v", parsed[`ipda_mac_queue_len_bucket{le="+Inf"}`])
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value_here",
		"name{unterminated 1",
		`name{a=b} 1`,
		"1name 2",
		"name notanumber",
	} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseProm accepted %q", bad)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "h", Label{"k", `va"l\ue` + "\n"}).Inc()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `m_total{k="va\"l\\ue\n"} 1`) {
		t.Fatalf("escaping wrong:\n%s", buf.String())
	}
	if _, err := ParseProm(&buf); err != nil {
		t.Fatalf("escaped export does not re-parse: %v", err)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "h", Label{"x", "1"}).Add(2)
	r.Counter("a_total", "h").Add(1)
	h := r.Histogram("c_hist", "h", []float64{10})
	h.Observe(3)
	h.Observe(4)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d samples, want 3", len(snap))
	}
	if snap[0].Name != "a_total" || snap[0].Value != 1 {
		t.Fatalf("snap[0] = %+v", snap[0])
	}
	if snap[1].Name != "b_total" || snap[1].Labels[0] != (Label{"x", "1"}) {
		t.Fatalf("snap[1] = %+v", snap[1])
	}
	if snap[2].Name != "c_hist" || snap[2].Value != 7 || snap[2].Count != 2 {
		t.Fatalf("snap[2] = %+v", snap[2])
	}
}

func TestSinkHelpers(t *testing.T) {
	s := NewSink()
	if s.Reg == nil {
		t.Fatal("NewSink must populate the registry")
	}
	s.Reg.Counter("c_total", "h").Inc()
	if snap := s.Reg.Snapshot(); len(snap) != 1 || snap[0].Value != 1 {
		t.Fatalf("sink registry snapshot = %+v", snap)
	}
}
