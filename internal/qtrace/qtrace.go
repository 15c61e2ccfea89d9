// Package qtrace is the simulator's one span recorder: where obs (the
// metrics layer) answers "how much", qtrace answers "why". Phase I and
// each round's protocol phases are network-wide spans, and every query
// round yields a causally linked span tree covering the slicing window,
// slice exchange, per-node aggregation up the trees, MAC retries and
// backoffs, and verification at the base station, with
// per-span attribution of simulated latency, airtime, retransmissions,
// and joules.
//
// Causality is carried in-band: packets hold a compact trace context
// (query ID plus the sender-side span reference, see packet.Header), so
// a receiver can parent its own spans to the exact transmission that
// caused them, hop by hop, without any side channel.
//
// The layer obeys the same contracts as obs:
//
//   - Every method is safe on a nil *Tracer and compiles to a single
//     pointer check on the disabled datapath (0 allocs/op).
//   - Tracing only reads protocol state. It never schedules events,
//     draws randomness, or alters a packet's modeled size, so a traced
//     run is byte-identical to an untraced one, and equal seeds produce
//     byte-identical traces at any worker or shard count.
//   - Span extents are recorded from statically known schedule bounds
//     (and extended by observed completions), so recording a span never
//     schedules an event of its own, which would renumber the event
//     sequence.
package qtrace

// DefaultLimit bounds a tracer's span storage. A paper-scale round
// (N=400, l=2) emits a few thousand spans, so this covers many rounds
// per trial; past it, spans are counted in Dropped rather than stored.
const DefaultLimit = 1 << 15

// Ref identifies a span within one Tracer. Refs are 1-based so the zero
// value None means "no span": attribution against None is a no-op, and a
// packet whose trace context is all zeroes is simply untraced.
type Ref uint32

// None is the null span reference.
const None Ref = 0

// Span is one node of a query's causal tree. Times are simulated
// seconds. Attribution fields accumulate over the span's lifetime:
// a transmission span collects the airtime, frame count, retries,
// backoffs, and transmit/receive energy of every attempt made for it.
type Span struct {
	// ID is the span's 1-based index in its tracer (== its Ref).
	ID uint32 `json:"id"`
	// Parent is the causally preceding span's ID, 0 for roots.
	Parent uint32 `json:"parent,omitempty"`
	// Query is the query (aggregation round) this span belongs to.
	Query uint32 `json:"query,omitempty"`
	// Node is the node the span executes on (-1 for network-wide spans).
	Node int32 `json:"node"`
	// Peer is the destination node for link spans (slice sends), 0
	// otherwise.
	Peer int32 `json:"peer,omitempty"`
	// Name classifies the span ("round", "slice", "aggregate:red", ...).
	// Only statically known strings are recorded.
	Name string `json:"name"`
	// Begin and End bound the span; End == Begin marks an instant.
	Begin float64 `json:"begin"`
	End   float64 `json:"end"`
	// Airtime is the summed on-air duration of the span's frames.
	Airtime float64 `json:"airtime,omitempty"`
	// Bytes and Frames count the span's transmissions (all attempts).
	Bytes  uint64 `json:"bytes,omitempty"`
	Frames uint32 `json:"frames,omitempty"`
	// Retries, Backoffs and Drops attribute MAC behavior to the span.
	Retries  uint32 `json:"retries,omitempty"`
	Backoffs uint32 `json:"backoffs,omitempty"`
	Drops    uint32 `json:"drops,omitempty"`
	// Joules is the energy attributed to the span (tx plus rx).
	Joules float64 `json:"joules,omitempty"`
	// Value carries a span-specific quantity (aggregate value, count of
	// dead nodes, ...) where one is meaningful.
	Value float64 `json:"value,omitempty"`
}

// Tracer accumulates the spans of one protocol instance (one trial
// slot). Not safe for concurrent use: like an obs.Sink it belongs to
// one simulation. The nil *Tracer is the disabled tracer — every method
// is a no-op behind a single pointer check.
type Tracer struct {
	limit   int
	dropped int
	spans   []Span
}

// New returns a tracer keeping at most limit spans (limit <= 0 means
// DefaultLimit).
func New(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Tracer{limit: limit}
}

// Start opens a span and returns its reference. Spans past the limit
// are dropped and yield None, which downstream attribution ignores.
func (t *Tracer) Start(query uint32, parent Ref, node int32, name string, begin float64) Ref {
	if t == nil {
		return None
	}
	if len(t.spans) >= t.limit {
		t.dropped++
		return None
	}
	id := uint32(len(t.spans)) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: uint32(parent), Query: query,
		Node: node, Name: name, Begin: begin, End: begin,
	})
	return Ref(id)
}

// Instant records a point event (End == Begin).
func (t *Tracer) Instant(query uint32, parent Ref, node int32, name string, at float64) Ref {
	return t.Start(query, parent, node, name, at)
}

// span resolves a reference, nil for None, out-of-range, or a nil
// tracer — the single guard every attribution method goes through.
func (t *Tracer) span(ref Ref) *Span {
	if t == nil || ref == None || int(ref) > len(t.spans) {
		return nil
	}
	return &t.spans[ref-1]
}

// End extends the span's end to at (never shrinks it): a transmission
// span ends when its last MAC attempt resolves, whenever that is.
func (t *Tracer) End(ref Ref, at float64) {
	if s := t.span(ref); s != nil && at > s.End {
		s.End = at
	}
}

// SetParent re-parents a span — how an aggregate arrival gets attached
// to the upward transmission it feeds once that transmission exists.
func (t *Tracer) SetParent(ref, parent Ref) {
	if s := t.span(ref); s != nil {
		s.Parent = uint32(parent)
	}
}

// SetPeer records the link destination of a transmission span.
func (t *Tracer) SetPeer(ref Ref, peer int32) {
	if s := t.span(ref); s != nil {
		s.Peer = peer
	}
}

// SetValue records the span's quantity.
func (t *Tracer) SetValue(ref Ref, v float64) {
	if s := t.span(ref); s != nil {
		s.Value = v
	}
}

// AddAir attributes one on-air frame (any attempt) to the span.
func (t *Tracer) AddAir(ref Ref, seconds float64, bytes int) {
	if s := t.span(ref); s != nil {
		s.Airtime += seconds
		s.Bytes += uint64(bytes)
		s.Frames++
	}
}

// AddRetry attributes one MAC retransmission to the span.
func (t *Tracer) AddRetry(ref Ref) {
	if s := t.span(ref); s != nil {
		s.Retries++
	}
}

// AddBackoff attributes one carrier-sense backoff to the span.
func (t *Tracer) AddBackoff(ref Ref) {
	if s := t.span(ref); s != nil {
		s.Backoffs++
	}
}

// AddDrop attributes one MAC drop (sense or retry budget exhausted).
func (t *Tracer) AddDrop(ref Ref) {
	if s := t.span(ref); s != nil {
		s.Drops++
	}
}

// AddJoules attributes consumed energy to the span.
func (t *Tracer) AddJoules(ref Ref, j float64) {
	if s := t.span(ref); s != nil {
		s.Joules += j
	}
}

// Len returns the number of stored spans (0 for a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Dropped returns how many spans arrived after the limit.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Spans returns the stored spans in creation order (ID order). The
// slice is the tracer's own storage; callers must not mutate it.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}
