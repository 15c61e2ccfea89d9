package qtrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Line is one JSONL trace record: a span plus the coordinates locating
// it in a sweep. Single-run exports (ipda-sim) leave the coordinates at
// their zero values; sweep exports (ipda-bench) fill them in. Queries
// over a trace file (cmd/ipda-trace) group on them.
type Line struct {
	Sweep string `json:"sweep,omitempty"`
	Point int    `json:"point,omitempty"`
	Trial int    `json:"trial,omitempty"`
	Slot  string `json:"slot,omitempty"`
	Span
}

// WriteJSONL emits the tracer's spans as JSON lines in ID order,
// followed by a trailer recording the drop count when spans were lost.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := writeSpans(bw, Line{}, t); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteJSONL emits every collected tracer as JSON lines: trials sorted
// by (sweep, point, trial), slots sorted by name, spans in ID order.
// The ordering is a pure function of the keys, so a sweep's export is
// byte-identical however its workers and shards interleaved.
func (s *Store) WriteJSONL(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	keys := make([]trialKey, 0, len(s.trials))
	for k := range s.trials {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Sweep != keys[b].Sweep {
			return keys[a].Sweep < keys[b].Sweep
		}
		if keys[a].Point != keys[b].Point {
			return keys[a].Point < keys[b].Point
		}
		return keys[a].Trial < keys[b].Trial
	})
	bw := bufio.NewWriter(w)
	for _, k := range keys {
		tt := s.Trial(k.Sweep, k.Point, k.Trial)
		tt.mu.Lock()
		slots := make([]string, 0, len(tt.slots))
		for slot := range tt.slots {
			slots = append(slots, slot)
		}
		tt.mu.Unlock()
		sort.Strings(slots)
		for _, slot := range slots {
			head := Line{Sweep: k.Sweep, Point: k.Point, Trial: k.Trial, Slot: slot}
			if err := writeSpans(bw, head, tt.Tracer(slot)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// writeSpans emits one tracer's spans under the given coordinates.
func writeSpans(w io.Writer, head Line, t *Tracer) error {
	enc := json.NewEncoder(w)
	for i := range t.Spans() {
		head.Span = t.Spans()[i]
		if err := enc.Encode(head); err != nil {
			return err
		}
	}
	if t.Dropped() > 0 {
		trailer := struct {
			Sweep   string `json:"sweep,omitempty"`
			Point   int    `json:"point,omitempty"`
			Trial   int    `json:"trial,omitempty"`
			Slot    string `json:"slot,omitempty"`
			Dropped int    `json:"dropped"`
		}{head.Sweep, head.Point, head.Trial, head.Slot, t.Dropped()}
		if err := enc.Encode(trailer); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a trace file produced by either WriteJSONL. Trailer
// records (drop counts) are summed into dropped; any other record must
// be a span (id >= 1, non-empty name), so a file in another format is an
// error naming the first offending record (1-based).
func ReadJSONL(r io.Reader) (lines []Line, dropped int, err error) {
	dec := json.NewDecoder(r)
	for rec := 1; ; rec++ {
		var v struct {
			Line
			Dropped *int `json:"dropped"`
		}
		if err := dec.Decode(&v); err != nil {
			if err == io.EOF {
				return lines, dropped, nil
			}
			return nil, 0, fmt.Errorf("qtrace: record %d: %w", rec, err)
		}
		if v.Dropped != nil {
			dropped += *v.Dropped
			continue
		}
		if v.ID == 0 || v.Name == "" {
			return nil, 0, fmt.Errorf("qtrace: record %d is neither a span nor a drop trailer", rec)
		}
		lines = append(lines, v.Line)
	}
}

// Key returns the line's trial coordinates as a printable group key.
func (l *Line) Key() string {
	if l.Sweep == "" && l.Slot == "" {
		return "run"
	}
	return fmt.Sprintf("%s/p%d/t%d/%s", l.Sweep, l.Point, l.Trial, l.Slot)
}

// GroupByTrial splits lines into per-(sweep, point, trial, slot) groups
// and returns the group keys in file order (first appearance).
func GroupByTrial(lines []Line) (map[string][]Span, []string) {
	groups := make(map[string][]Span)
	var order []string
	for i := range lines {
		k := lines[i].Key()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], lines[i].Span)
	}
	return groups, order
}

// WriteChromeTrace renders one trial's spans as Chrome trace-event JSON
// (the "JSON Array Format" object variant that Perfetto and
// chrome://tracing both load). Simulated seconds map to microseconds of
// trace time, every node becomes a named thread under process 0 (spans
// on negative nodes share the "network" thread), spans on one thread
// nest by time containment, and a span with End == Begin renders as an
// instant. Output is deterministic: metadata sorted by thread, then
// events in slice order.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	first := true
	emit := func(format string, a ...any) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
		fmt.Fprintf(bw, format, a...)
	}

	// Thread-name metadata: one per thread, sorted, so Perfetto shows
	// "node 7" instead of a bare tid.
	seen := map[int64]bool{}
	var tids []int64
	for i := range spans {
		if t := tid(spans[i].Node); !seen[t] {
			seen[t] = true
			tids = append(tids, t)
		}
	}
	sort.Slice(tids, func(a, b int) bool { return tids[a] < tids[b] })
	for _, t := range tids {
		label := fmt.Sprintf("node %d", t-1)
		if t == 0 {
			label = "network"
		}
		emit(`{"ph":"M","name":"thread_name","pid":0,"tid":%d,"args":{"name":%s}}`, t, escapeJSON(label))
	}
	// sort_index metadata pins the network thread above the node threads.
	for _, t := range tids {
		emit(`{"ph":"M","name":"thread_sort_index","pid":0,"tid":%d,"args":{"sort_index":%d}}`, t, t)
	}

	for i := range spans {
		s := &spans[i]
		ts := s.Begin * 1e6 // simulated seconds -> trace µs
		args := ""
		if s.Query != 0 {
			args = fmt.Sprintf(`,"args":{"round":%d}`, s.Query)
		}
		if s.End > s.Begin {
			emit(`{"ph":"X","name":%s,"pid":0,"tid":%d,"ts":%g,"dur":%g%s}`,
				escapeJSON(s.Name), tid(s.Node), ts, (s.End-s.Begin)*1e6, args)
		} else {
			emit(`{"ph":"i","name":%s,"pid":0,"tid":%d,"ts":%g,"s":"t"%s}`,
				escapeJSON(s.Name), tid(s.Node), ts, args)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// tid maps a node to a viewer thread ID, which must be non-negative:
// network-wide spans (negative nodes) go to 0, node n to n+1.
func tid(node int32) int64 {
	if node < 0 {
		return 0
	}
	return int64(node) + 1
}

// escapeJSON writes s as a JSON string literal (span names are ASCII,
// but be correct regardless).
func escapeJSON(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, c := range []byte(s) {
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(&b, `\u%04x`, c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// WriteText renders spans as a deterministic indented tree, children
// sorted by (Begin, ID) under each parent, roots first. Orphans (spans
// whose parent was dropped) print as roots.
func WriteText(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	byID := make(map[uint32]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
	}
	children := make(map[uint32][]int)
	var roots []int
	for i := range spans {
		p := spans[i].Parent
		if p == 0 || byID[p] == i {
			roots = append(roots, i)
			continue
		}
		if _, ok := byID[p]; !ok {
			roots = append(roots, i)
			continue
		}
		children[p] = append(children[p], i)
	}
	order := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := &spans[idx[a]], &spans[idx[b]]
			if sa.Begin != sb.Begin {
				return sa.Begin < sb.Begin
			}
			return sa.ID < sb.ID
		})
	}
	order(roots)
	// visited guards against parent cycles in hand-edited input files.
	visited := make([]bool, len(spans))
	var walk func(i, depth int)
	walk = func(i, depth int) {
		if visited[i] {
			return
		}
		visited[i] = true
		s := &spans[i]
		for d := 0; d < depth; d++ {
			bw.WriteString("  ")
		}
		fmt.Fprintf(bw, "%s q%d node=%d [%.4f %.4f]", s.Name, s.Query, s.Node, s.Begin, s.End)
		if s.Peer != 0 {
			fmt.Fprintf(bw, " peer=%d", s.Peer)
		}
		if s.Frames > 0 {
			fmt.Fprintf(bw, " frames=%d bytes=%d air=%.6f", s.Frames, s.Bytes, s.Airtime)
		}
		if s.Retries > 0 {
			fmt.Fprintf(bw, " retries=%d", s.Retries)
		}
		if s.Backoffs > 0 {
			fmt.Fprintf(bw, " backoffs=%d", s.Backoffs)
		}
		if s.Drops > 0 {
			fmt.Fprintf(bw, " drops=%d", s.Drops)
		}
		if s.Joules > 0 {
			fmt.Fprintf(bw, " joules=%.9f", s.Joules)
		}
		if s.Value != 0 {
			fmt.Fprintf(bw, " value=%g", s.Value)
		}
		bw.WriteByte('\n')
		kids := children[s.ID]
		order(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return bw.Flush()
}
