// Command ipda-trace inspects the causal per-query traces the simulator
// produces (ipda-sim -qtrace, ipda-bench -qtrace-out). It prints a
// summary by default and supports three query modes:
//
//	ipda-trace q.jsonl                  # per-trial summary + frame table
//	ipda-trace -query 1 q.jsonl         # causal span tree of query 1
//	ipda-trace -critical-path q.jsonl   # tail-latency chain per round
//	ipda-trace -health q.jsonl          # full round-health report
//
// The summary's frame table is the radio-level view: per span name, the
// frames, bytes, airtime, MAC retries and drops attributed to it.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/ipda-sim/ipda/internal/qtrace"
)

func main() {
	var (
		query    = flag.Int("query", -1, "print the causal span tree of this query (aggregation round)")
		critPath = flag.Bool("critical-path", false, "print each round's critical path: the causal chain behind its completion time")
		health   = flag.Bool("health", false, "print the full round-health report (verdicts, subtree rollups, critical paths)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ipda-trace [-query N | -critical-path | -health] <trace.jsonl>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	defer f.Close()
	lines, dropped, err := qtrace.ReadJSONL(f)
	if err != nil {
		fail(err)
	}
	groups, order := qtrace.GroupByTrial(lines)
	switch {
	case *query >= 0:
		for _, k := range order {
			spans := filterQuery(groups[k], uint32(*query))
			if len(spans) == 0 {
				continue
			}
			fmt.Printf("== %s ==\n", k)
			if err := qtrace.WriteText(os.Stdout, spans); err != nil {
				fail(err)
			}
		}
	case *critPath:
		for _, k := range order {
			fmt.Printf("== %s ==\n", k)
			for _, h := range qtrace.Analyze(groups[k]) {
				fmt.Printf("query %d (%s, %.4fs):\n", h.Query, verdictOf(h), h.End-h.Begin)
				for _, hop := range h.CriticalPath {
					fmt.Printf("  %s node=%d [%.4f %.4f]\n", hop.Name, hop.Node, hop.Begin, hop.End)
				}
			}
		}
	case *health:
		for _, k := range order {
			fmt.Printf("== %s ==\n", k)
			if err := qtrace.WriteHealth(os.Stdout, groups[k]); err != nil {
				fail(err)
			}
		}
	default:
		fmt.Printf("trials:  %d (%d spans, %d dropped at capture)\n", len(order), len(lines), dropped)
		for _, k := range order {
			spans := groups[k]
			rounds := qtrace.Analyze(spans)
			accepted := 0
			for _, h := range rounds {
				if h.Verdict == "accepted" {
					accepted++
				}
			}
			fmt.Printf("  %-24s %6d spans, %d rounds (%d accepted)\n", k, len(spans), len(rounds), accepted)
			writeFrames(spans)
		}
		fmt.Println("modes:   -query N | -critical-path | -health")
	}
}

// writeFrames prints one row per span name: how many spans carry it and
// the frames, bytes, airtime, retries and drops attributed to them.
func writeFrames(spans []qtrace.Span) {
	type row struct {
		count, frames, bytes, retries, drops uint64
		air                                  float64
	}
	rows := map[string]*row{}
	var names []string
	for i := range spans {
		s := &spans[i]
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
			names = append(names, s.Name)
		}
		r.count++
		r.frames += uint64(s.Frames)
		r.bytes += s.Bytes
		r.air += s.Airtime
		r.retries += uint64(s.Retries)
		r.drops += uint64(s.Drops)
	}
	sort.Strings(names)
	fmt.Printf("    %-28s %7s %7s %9s %10s %7s %6s\n", "span", "count", "frames", "bytes", "airtime", "retries", "drops")
	for _, name := range names {
		r := rows[name]
		fmt.Printf("    %-28s %7d %7d %9d %10.6f %7d %6d\n", name, r.count, r.frames, r.bytes, r.air, r.retries, r.drops)
	}
}

// filterQuery keeps the spans of one query.
func filterQuery(spans []qtrace.Span, q uint32) []qtrace.Span {
	var out []qtrace.Span
	for _, s := range spans {
		if s.Query == q {
			out = append(out, s)
		}
	}
	return out
}

func verdictOf(h qtrace.Health) string {
	if h.Verdict == "" {
		return "unknown"
	}
	return h.Verdict
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ipda-trace:", err)
	os.Exit(1)
}
