package qtrace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Health is the rolled-up diagnosis of one traced query round: verdict,
// per-subtree contribution and cost, structural losses, and the
// critical path behind the round's completion time.
type Health struct {
	Query      uint32
	Verdict    string // "accepted", "rejected", or "" when untraced
	Begin, End float64
	Spans      int
	// Dead, Skipped and Repaired echo the round's tree maintenance
	// instants (PR 4 accounting), when present.
	Dead, Skipped, Repaired int
	// Subtrees aggregates the upward traffic per base-station child —
	// the unit pollution localization and loss attribution work at.
	Subtrees []Subtree
	// CriticalPath walks, from the verification point downward, the
	// causal chain with the latest completion at every level: where the
	// round's tail latency came from.
	CriticalPath []Hop
}

// Subtree is the rollup of one base-station child's aggregation
// subtree: every aggregate transmission causally beneath it.
type Subtree struct {
	Root        int32  // the hop-1 aggregator
	Tree        string // "red", "blue", or "" when unknown
	Nodes       int    // distinct aggregating nodes in the subtree
	Frames      uint32
	Bytes       uint64
	Retries     uint32
	Backoffs    uint32
	Drops       uint32
	Airtime     float64
	Joules      float64
	LastArrival float64 // latest End among the subtree's spans
}

// Hop is one step of a critical path.
type Hop struct {
	Node       int32
	Name       string
	Begin, End float64
}

// Analyze rolls one trial slot's spans up into per-round health
// reports, sorted by query. Spans must come from a single tracer (IDs
// are tracer-local).
func Analyze(spans []Span) []Health {
	byID := make(map[uint32]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
	}
	children := make(map[uint32][]int, len(spans))
	for i := range spans {
		p := spans[i].Parent
		if p != 0 && p != spans[i].ID {
			if _, ok := byID[p]; ok {
				children[p] = append(children[p], i)
			}
		}
	}

	// Subtrees are disjoint in a well-formed trace, so one visited set
	// serves every rollup; it stops parent cycles in hand-edited files.
	visited := make([]bool, len(spans))
	var out []Health
	for i := range spans {
		if spans[i].Name != "round" {
			continue
		}
		round := &spans[i]
		h := Health{Query: round.Query, Begin: round.Begin, End: round.End}
		// Count the round's spans: everything sharing its query.
		for j := range spans {
			if spans[j].Query == round.Query {
				h.Spans++
			}
		}
		var verify *Span
		for _, ci := range children[round.ID] {
			c := &spans[ci]
			switch {
			case strings.HasPrefix(c.Name, "verify:"):
				verify = c
				h.Verdict = strings.TrimPrefix(c.Name, "verify:")
			case c.Name == "tree:dead":
				h.Dead = int(c.Value)
			case c.Name == "tree:skipped":
				h.Skipped = int(c.Value)
			case c.Name == "tree:repaired":
				h.Repaired = int(c.Value)
			}
		}
		if verify != nil {
			for _, ci := range children[verify.ID] {
				c := &spans[ci]
				if !strings.HasPrefix(c.Name, "aggregate") {
					continue
				}
				st := Subtree{Root: c.Node}
				if k := strings.IndexByte(c.Name, ':'); k >= 0 {
					st.Tree = c.Name[k+1:]
				}
				rollup(spans, children, ci, &st, map[int32]bool{}, visited)
				h.Subtrees = append(h.Subtrees, st)
			}
			sort.Slice(h.Subtrees, func(a, b int) bool {
				if h.Subtrees[a].Tree != h.Subtrees[b].Tree {
					return h.Subtrees[a].Tree < h.Subtrees[b].Tree
				}
				return h.Subtrees[a].Root < h.Subtrees[b].Root
			})
			h.CriticalPath = criticalPath(spans, children, verify)
		}
		out = append(out, h)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Query < out[b].Query })
	return out
}

// rollup accumulates the aggregate spans of one subtree depth-first,
// skipping spans already visited.
func rollup(spans []Span, children map[uint32][]int, i int, st *Subtree, nodes map[int32]bool, visited []bool) {
	if visited[i] {
		return
	}
	visited[i] = true
	s := &spans[i]
	if strings.HasPrefix(s.Name, "aggregate") && !strings.HasSuffix(s.Name, ":rx") {
		if !nodes[s.Node] {
			nodes[s.Node] = true
			st.Nodes++
		}
	}
	st.Frames += s.Frames
	st.Bytes += s.Bytes
	st.Retries += s.Retries
	st.Backoffs += s.Backoffs
	st.Drops += s.Drops
	st.Airtime += s.Airtime
	st.Joules += s.Joules
	if s.End > st.LastArrival {
		st.LastArrival = s.End
	}
	for _, ci := range children[uint32(s.ID)] {
		rollup(spans, children, ci, st, nodes, visited)
	}
}

// criticalPath follows, from start, the child with the latest End at
// every level (ties to the lower ID — children lists are in ID order).
func criticalPath(spans []Span, children map[uint32][]int, start *Span) []Hop {
	path := []Hop{{Node: start.Node, Name: start.Name, Begin: start.Begin, End: start.End}}
	cur := start
	for len(path) < len(spans)+1 {
		kids := children[cur.ID]
		if len(kids) == 0 {
			break
		}
		best := -1
		for _, ci := range kids {
			if best < 0 || spans[ci].End > spans[best].End {
				best = ci
			}
		}
		cur = &spans[best]
		path = append(path, Hop{Node: cur.Node, Name: cur.Name, Begin: cur.Begin, End: cur.End})
	}
	return path
}

// WriteHealth renders per-round health reports as deterministic text.
func WriteHealth(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	for _, h := range Analyze(spans) {
		verdict := h.Verdict
		if verdict == "" {
			verdict = "unknown"
		}
		fmt.Fprintf(bw, "query %d: %s [%.4f %.4f] spans=%d dead=%d skipped=%d repaired=%d\n",
			h.Query, verdict, h.Begin, h.End, h.Spans, h.Dead, h.Skipped, h.Repaired)
		for _, st := range h.Subtrees {
			fmt.Fprintf(bw,
				"  subtree root=%d tree=%s nodes=%d frames=%d bytes=%d retries=%d backoffs=%d drops=%d air=%.6f joules=%.9f last=%.4f\n",
				st.Root, st.Tree, st.Nodes, st.Frames, st.Bytes,
				st.Retries, st.Backoffs, st.Drops, st.Airtime, st.Joules, st.LastArrival)
		}
		if len(h.CriticalPath) > 0 {
			fmt.Fprintf(bw, "  critical path (%d hops):\n", len(h.CriticalPath))
			for _, hop := range h.CriticalPath {
				fmt.Fprintf(bw, "    %s node=%d [%.4f %.4f]\n", hop.Name, hop.Node, hop.Begin, hop.End)
			}
		}
	}
	return bw.Flush()
}
