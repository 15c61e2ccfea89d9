// Command benchgate is the performance-regression gate CI runs on the
// repo's gated benchmarks: it executes the named benchmark with
// -benchmem, parses the measured allocs/op and ns/op, and compares both
// against the newest entry in the history file. A measurement exceeding
// the recorded value by more than its tolerance exits non-zero with a
// diagnostic.
//
// The two figures get very different tolerances. Allocation counts are
// deterministic for a fixed toolchain, so a tight relative gate (default
// 10%) holds on shared CI machines. Wall-clock time is not — the ns/op
// gate exists to catch order-of-magnitude blowups (an accidental O(n²),
// a lost fast path), so its default tolerance is a generous 40% and the
// history files record the machine the reference was measured on.
//
// CI gates three (benchmark, history) pairs: BenchmarkFig7Overhead
// against BENCH_fig7.json (the single-world protocol path),
// BenchmarkShardScale against BENCH_scale.json (the sharded scale path)
// and BenchmarkStreamingDay against BENCH_stream.json (the epoch path).
//
// Besides the append-only "history" list, a file may carry a "gates" map
// of named absolute references — fixed ceilings for micro-benchmarks
// (the AES keystream path, the batch seal API, the TDMA round) that are
// not part of any history trajectory. -key selects a gates entry instead
// of the newest history entry; a gates reference with allocs_per_op 0 is
// an exact zero-allocation pin, not a relative gate.
//
// The benchmark always runs with -cpu 1, whatever the host's CPU count:
// every reference was recorded at GOMAXPROCS=1, and the harness-driven
// benchmarks scale their worker count (and with it their arenas and
// allocations) with GOMAXPROCS.
//
// -count N runs the benchmark N times (go test -count N) for gates whose
// timing trips on a busy host: the ns/op gate then checks the median of
// the N runs, so one run slowed by a neighbour cannot fail it, while the
// allocs/op gate checks the largest of the N counts, so repetition never
// loosens it.
//
// Usage:
//
//	go run ./cmd/benchgate [-bench BenchmarkFig7Overhead] [-history BENCH_fig7.json] [-tolerance 0.10] [-ns-tolerance 0.40] [-count 1]
//	go run ./cmd/benchgate -bench BenchmarkPRFKeystream -key BenchmarkPRFKeystream -pkg ./internal/linksec -count 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
)

type reference struct {
	Date        string  `json:"date"`
	Label       string  `json:"label"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type history struct {
	History []reference          `json:"history"`
	Gates   map[string]reference `json:"gates"`
}

func main() {
	bench := flag.String("bench", "BenchmarkFig7Overhead", "benchmark to gate (anchored exact match)")
	file := flag.String("history", "BENCH_fig7.json", "benchmark history file; the newest entry is the reference")
	tolerance := flag.Float64("tolerance", 0.10, "allowed relative allocs/op increase over the reference")
	nsTolerance := flag.Float64("ns-tolerance", 0.40, "allowed relative ns/op increase over the reference (0 disables the timing gate)")
	benchtime := flag.String("benchtime", "3x", "-benchtime passed to go test")
	pkg := flag.String("pkg", ".", "package holding the benchmark")
	key := flag.String("key", "", "gate against this entry of the history file's \"gates\" map instead of the newest history entry")
	count := flag.Int("count", 1, "runs of the benchmark (go test -count); ns/op is gated on their median, allocs/op on their maximum")
	flag.Parse()
	if *count < 1 {
		fmt.Fprintln(os.Stderr, "benchgate: -count must be at least 1")
		os.Exit(2)
	}

	if err := run(*bench, *file, *key, *tolerance, *nsTolerance, *benchtime, *pkg, *count); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(bench, file, key string, tolerance, nsTolerance float64, benchtime, pkg string, count int) error {
	raw, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	var h history
	if err := json.Unmarshal(raw, &h); err != nil {
		return fmt.Errorf("parse %s: %w", file, err)
	}
	var ref reference
	zeroAllocPin := false
	if key != "" {
		var ok bool
		ref, ok = h.Gates[key]
		if !ok {
			return fmt.Errorf("%s has no gates entry %q", file, key)
		}
		if ref.Label == "" {
			ref.Label = key
		}
		// A gates entry may legitimately pin 0 allocs/op; relative
		// tolerance is meaningless there, so the gate becomes exact.
		zeroAllocPin = ref.AllocsPerOp == 0
	} else {
		if len(h.History) == 0 {
			return fmt.Errorf("%s has no history entries to gate against", file)
		}
		ref = h.History[len(h.History)-1]
		if ref.AllocsPerOp <= 0 {
			return fmt.Errorf("%s newest entry has no allocs_per_op", file)
		}
	}

	cmd := exec.Command("go", "test", "-run", "^$", "-cpu", "1", "-count", strconv.Itoa(count),
		"-bench", "^"+bench+"$", "-benchmem", "-benchtime", benchtime, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("%v:\n%s", err, out)
	}
	results, err := parseResults(bench, string(out))
	if err != nil {
		return fmt.Errorf("%w in output:\n%s", err, out)
	}
	if len(results) != count {
		return fmt.Errorf("%d result lines for %s, want %d, in output:\n%s", len(results), bench, count, out)
	}
	ns, allocs := summarize(results)
	if count > 1 {
		fmt.Printf("benchgate: %s ran %d times; gating the median ns/op and the largest allocs/op\n", bench, count)
	}

	limit := ref.AllocsPerOp * (1 + tolerance)
	if zeroAllocPin {
		limit = 0
	}
	fmt.Printf("benchgate: %s measured %d allocs/op; reference %q (%s) recorded %.0f (limit %.0f)\n",
		bench, allocs, ref.Label, ref.Date, ref.AllocsPerOp, limit)
	if float64(allocs) > limit {
		if zeroAllocPin {
			return fmt.Errorf("allocation regression: %d allocs/op on a path pinned to zero allocations", allocs)
		}
		return fmt.Errorf("allocation regression: %d allocs/op exceeds %.0f (%+.1f%% over the recorded %.0f)",
			allocs, limit, 100*(float64(allocs)/ref.AllocsPerOp-1), ref.AllocsPerOp)
	}
	if nsTolerance > 0 && ref.NsPerOp > 0 {
		nsLimit := ref.NsPerOp * (1 + nsTolerance)
		fmt.Printf("benchgate: %s measured %.0f ns/op; reference recorded %.0f (limit %.0f)\n",
			bench, ns, ref.NsPerOp, nsLimit)
		if ns > nsLimit {
			return fmt.Errorf("timing regression: %.0f ns/op exceeds %.0f (%+.1f%% over the recorded %.0f)",
				ns, nsLimit, 100*(ns/ref.NsPerOp-1), ref.NsPerOp)
		}
	}
	return nil
}

// result is one -benchmem result line's figures.
type result struct {
	ns     float64
	allocs int64
}

// parseResults extracts the ns/op and allocs/op figures from every
// -benchmem result line (`BenchmarkX  N  ns/op  B/op  allocs/op`) for
// bench, one per -count run, tolerating the -cpu suffix go test appends
// to the benchmark name.
func parseResults(bench, out string) ([]result, error) {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(bench) + `(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+[\d.]+ B/op\s+(\d+) allocs/op`)
	var rs []result
	for _, m := range re.FindAllStringSubmatch(out, -1) {
		ns, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, err
		}
		allocs, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, err
		}
		rs = append(rs, result{ns, allocs})
	}
	if rs == nil {
		return nil, fmt.Errorf("no -benchmem result line for %s", bench)
	}
	return rs, nil
}

// summarize returns the median ns/op and the maximum allocs/op of rs,
// which must be non-empty.
func summarize(rs []result) (ns float64, allocs int64) {
	times := make([]float64, len(rs))
	for i, r := range rs {
		times[i] = r.ns
		allocs = max(allocs, r.allocs)
	}
	slices.Sort(times)
	if n := len(times); n%2 == 1 {
		ns = times[n/2]
	} else {
		ns = (times[n/2-1] + times[n/2]) / 2
	}
	return ns, allocs
}
