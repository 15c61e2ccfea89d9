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
// CI gates two (benchmark, history) pairs: BenchmarkFig7Overhead against
// BENCH_fig7.json (the single-world protocol path) and
// BenchmarkShardScale against BENCH_scale.json (the sharded scale path).
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
// Usage:
//
//	go run ./cmd/benchgate [-bench BenchmarkFig7Overhead] [-history BENCH_fig7.json] [-tolerance 0.10] [-ns-tolerance 0.40]
//	go run ./cmd/benchgate -bench BenchmarkPRFKeystream -key BenchmarkPRFKeystream -pkg ./internal/linksec
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
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
	flag.Parse()

	if err := run(*bench, *file, *key, *tolerance, *nsTolerance, *benchtime, *pkg); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(bench, file, key string, tolerance, nsTolerance float64, benchtime, pkg string) error {
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

	cmd := exec.Command("go", "test", "-run", "^$", "-cpu", "1",
		"-bench", "^"+bench+"$", "-benchmem", "-benchtime", benchtime, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("%v:\n%s", err, out)
	}
	ns, allocs, err := parseResult(bench, string(out))
	if err != nil {
		return fmt.Errorf("%w in output:\n%s", err, out)
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

// parseResult extracts the ns/op and allocs/op figures from a -benchmem
// result line (`BenchmarkX  N  ns/op  B/op  allocs/op`), tolerating the
// -cpu suffix go test appends to the benchmark name.
func parseResult(bench, out string) (float64, int64, error) {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(bench) + `(?:-\d+)?\s+\d+\s+([\d.]+) ns/op\s+[\d.]+ B/op\s+(\d+) allocs/op`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		return 0, 0, fmt.Errorf("no -benchmem result line for %s", bench)
	}
	ns, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return 0, 0, err
	}
	allocs, err := strconv.ParseInt(m[2], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	return ns, allocs, nil
}
