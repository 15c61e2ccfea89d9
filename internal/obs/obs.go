// Package obs is the protocol-wide instrumentation layer: a registry of
// labeled counters, gauges and histograms (spans live in qtrace). Every
// layer of the stack (radio, mac, tree, core, tag, energy,
// harness) exposes a SetObs-style hook that resolves its instruments once
// at attach time and then updates them from the hot path with plain
// field stores.
//
// Two design rules keep the layer compatible with the simulator's
// performance and determinism contracts:
//
//   - Allocation-conscious: label sets are fixed and resolved to dense
//     series handles at registration time, so a hot-path update is one
//     pointer-chased add — no map lookups, no label formatting, no
//     allocation. Uninstrumented runs pay a single nil check per
//     instrumentation point (the layers guard on their Sink pointer).
//   - Deterministic and side-effect free: instruments only *read*
//     protocol state; they never schedule events, draw randomness, or
//     otherwise perturb a run. Exports iterate families and series in
//     sorted order, so equal runs produce byte-identical snapshots.
//
// The registry is not safe for concurrent use; it belongs to one
// simulation (or one harness sweep, whose workers serialize updates under
// the sweep's own lock).
package obs

import (
	"fmt"
	"sort"
)

// Type discriminates the metric families of a Registry.
type Type uint8

const (
	// TypeCounter is a monotonically non-decreasing cumulative value.
	TypeCounter Type = iota
	// TypeGauge is a value that can go up and down (set).
	TypeGauge
	// TypeHistogram counts observations into fixed cumulative buckets.
	TypeHistogram
)

func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Label is one name=value pair of a metric series. A family's label
// *names* are fixed by its first registration; registering a series with
// different names (or a different type) for the same family panics — it
// is always a programmer error, never a runtime condition.
type Label struct {
	Name, Value string
}

// Registry holds metric families and their series. The zero value is not
// usable; use NewRegistry.
type Registry struct {
	families map[string]*family
}

// family is one named metric with a fixed type and label-name set.
type family struct {
	help       string
	typ        Type
	labelNames []string
	bounds     []float64 // histogram upper bounds, ascending
	series     map[string]*series
	order      []*series
}

// series is one (family, label values) cell — the dense storage a handle
// points at.
type series struct {
	labelValues []string
	key         string

	// Counter/gauge state.
	val float64

	// Histogram state: buckets[i] counts observations <= bounds[i];
	// buckets[len(bounds)] is the overflow (+Inf) bucket.
	buckets []uint64
	sum     float64
	count   uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// seriesKey joins label values unambiguously (values may contain commas).
func seriesKey(labels []Label) string {
	key := ""
	for _, l := range labels {
		key += fmt.Sprintf("%d:%s,", len(l.Value), l.Value)
	}
	return key
}

// register resolves (or creates) the series for one instrument handle.
func (r *Registry) register(typ Type, name, help string, bounds []float64, labels []Label) *series {
	if name == "" {
		panic("obs: metric name must not be empty")
	}
	fam := r.families[name]
	if fam == nil {
		names := make([]string, len(labels))
		for i, l := range labels {
			if l.Name == "" {
				panic(fmt.Sprintf("obs: metric %q has an empty label name", name))
			}
			names[i] = l.Name
		}
		fam = &family{
			help:       help,
			typ:        typ,
			labelNames: names,
			bounds:     bounds,
			series:     make(map[string]*series),
		}
		r.families[name] = fam
	} else {
		if fam.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, typ, fam.typ))
		}
		if len(fam.labelNames) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with %d labels, was %d", name, len(labels), len(fam.labelNames)))
		}
		for i, l := range labels {
			if fam.labelNames[i] != l.Name {
				panic(fmt.Sprintf("obs: metric %q label %d is %q, was %q", name, i, l.Name, fam.labelNames[i]))
			}
		}
	}
	key := seriesKey(labels)
	s := fam.series[key]
	if s == nil {
		values := make([]string, len(labels))
		for i, l := range labels {
			values[i] = l.Value
		}
		s = &series{labelValues: values, key: key}
		if typ == TypeHistogram {
			s.buckets = make([]uint64, len(bounds)+1)
		}
		fam.series[key] = s
		fam.order = append(fam.order, s)
	}
	return s
}

// Counter registers (or resolves) a counter series and returns its
// handle. Registering the same (name, labels) again returns a handle to
// the same cell, so instruments accumulate across protocol instances
// sharing a registry.
func (r *Registry) Counter(name, help string, labels ...Label) Counter {
	return Counter{s: r.register(TypeCounter, name, help, nil, labels)}
}

// Gauge registers (or resolves) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) Gauge {
	return Gauge{s: r.register(TypeGauge, name, help, nil, labels)}
}

// Histogram registers (or resolves) a histogram series with the given
// ascending upper bounds (+Inf is implicit). Bounds must match any
// earlier registration of the family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	fam := r.families[name]
	if fam != nil && len(fam.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
	}
	return Histogram{s: r.register(TypeHistogram, name, help, bounds, labels), bounds: bounds}
}

// Counter is a handle to one counter series. The zero value is a no-op,
// so layers may keep unconditional handles; increments on a resolved
// handle are a nil check and an add.
type Counter struct{ s *series }

// Inc adds 1.
func (c Counter) Inc() {
	if c.s != nil {
		c.s.val++
	}
}

// Add adds v, which must be non-negative for the series to stay a
// well-formed counter (not checked on the hot path).
func (c Counter) Add(v float64) {
	if c.s != nil {
		c.s.val += v
	}
}

// Value returns the current value (0 for the zero handle).
func (c Counter) Value() float64 {
	if c.s == nil {
		return 0
	}
	return c.s.val
}

// Gauge is a handle to one gauge series. The zero value is a no-op.
type Gauge struct{ s *series }

// Set replaces the value.
func (g Gauge) Set(v float64) {
	if g.s != nil {
		g.s.val = v
	}
}

// Histogram is a handle to one histogram series. The zero value is a
// no-op.
type Histogram struct {
	s      *series
	bounds []float64
}

// Observe records one observation.
func (h Histogram) Observe(v float64) {
	if h.s == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.s.buckets[i]++
	h.s.sum += v
	h.s.count++
}

// ExpBuckets returns n exponentially growing histogram upper bounds:
// base, base·factor, base·factor², … — the standard shape for latency
// distributions, whose tails span orders of magnitude. base must be
// positive and factor > 1.
func ExpBuckets(base, factor float64, n int) []float64 {
	if base <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%v, %v, %d) invalid", base, factor, n))
	}
	out := make([]float64, n)
	b := base
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of a histogram from its
// upper bounds and per-bucket counts (counts[len(bounds)] is the overflow
// bucket), interpolating linearly within the selected bucket the way
// Prometheus' histogram_quantile does. It returns 0 for an empty
// histogram and the highest finite bound when the quantile lands in the
// overflow bucket.
func Quantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(bounds) {
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		return lo + (bounds[i]-lo)*(rank-prev)/float64(c)
	}
	return bounds[len(bounds)-1]
}

// Sample is one series in a Snapshot.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
	// Count is the observation count for histogram series (0 otherwise);
	// Value carries the sum.
	Count uint64
	// Bounds and BucketCounts expose a histogram series' distribution
	// (nil otherwise): BucketCounts[i] observations fell at or below
	// Bounds[i], BucketCounts[len(Bounds)] is the overflow bucket. Both
	// alias registry storage — snapshot consumers must not mutate them.
	Bounds       []float64
	BucketCounts []uint64
}

// Snapshot returns every series' current value, families sorted by name
// and series in registration order — a stable, export-independent view
// for programmatic consumers (the bench CLI's progress reporting).
func (r *Registry) Snapshot() []Sample {
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Sample
	for _, name := range names {
		fam := r.families[name]
		for _, s := range fam.order {
			labels := make([]Label, len(fam.labelNames))
			for i := range fam.labelNames {
				labels[i] = Label{Name: fam.labelNames[i], Value: s.labelValues[i]}
			}
			smp := Sample{Name: name, Labels: labels, Value: s.val}
			if fam.typ == TypeHistogram {
				smp.Value = s.sum
				smp.Count = s.count
				smp.Bounds = fam.bounds
				smp.BucketCounts = s.buckets
			}
			out = append(out, smp)
		}
	}
	return out
}

// Sink is the registry a protocol stack is instrumented against. A nil
// *Sink (or a nil Reg) disables instrumentation: layers guard their hot
// paths with one pointer check.
type Sink struct {
	Reg *Registry
}

// NewSink returns a sink with a fresh registry.
func NewSink() *Sink {
	return &Sink{Reg: NewRegistry()}
}
