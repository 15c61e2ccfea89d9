package main

import (
	"slices"
	"strings"
	"testing"
)

const header = `goos: linux
goarch: amd64
pkg: github.com/ipda-sim/ipda/internal/linksec
cpu: Intel(R) Xeon(R) Processor
`

func TestParseResultsOneLine(t *testing.T) {
	out := header + "BenchmarkPRFKeystream \t   20000\t        98.50 ns/op\t       0 B/op\t       0 allocs/op\nPASS\n"
	rs, err := parseResults("BenchmarkPRFKeystream", out)
	if err != nil {
		t.Fatal(err)
	}
	if want := []result{{98.5, 0}}; !slices.Equal(rs, want) {
		t.Fatalf("results = %v, want %v", rs, want)
	}
}

func TestParseResultsCountLines(t *testing.T) {
	// go test -count 5 prints one line per run; a benchmark whose name
	// extends the gated one must not be picked up.
	out := header +
		"BenchmarkTransmitDenseQTraceDisabled \t20000\t 270.1 ns/op\t 0 B/op\t 0 allocs/op\n" +
		"BenchmarkTransmitDenseQTraceDisabled \t20000\t 614.0 ns/op\t 0 B/op\t 2 allocs/op\n" +
		"BenchmarkTransmitDenseQTraceDisabledX\t20000\t 1.0 ns/op\t 0 B/op\t 9 allocs/op\n" +
		"BenchmarkTransmitDenseQTraceDisabled \t20000\t 250.0 ns/op\t 0 B/op\t 0 allocs/op\n" +
		"BenchmarkTransmitDenseQTraceDisabled \t20000\t 301.5 ns/op\t 0 B/op\t 1 allocs/op\n" +
		"BenchmarkTransmitDenseQTraceDisabled \t20000\t 280.0 ns/op\t 0 B/op\t 0 allocs/op\n" +
		"PASS\n"
	rs, err := parseResults("BenchmarkTransmitDenseQTraceDisabled", out)
	if err != nil {
		t.Fatal(err)
	}
	want := []result{{270.1, 0}, {614, 2}, {250, 0}, {301.5, 1}, {280, 0}}
	if !slices.Equal(rs, want) {
		t.Fatalf("results = %v, want %v", rs, want)
	}
	// The median ignores the one slow run; the allocation count is the
	// largest seen, so repetition never hides an allocating run.
	if ns, allocs := summarize(rs); ns != 280 || allocs != 2 {
		t.Fatalf("summarize = %v ns/op, %d allocs/op; want 280, 2", ns, allocs)
	}
	if ns, _ := summarize(rs[:4]); ns != (270.1+301.5)/2 {
		t.Fatalf("even-count median = %v, want the mean of the middle two", ns)
	}
}

func TestParseResultsCPUSuffix(t *testing.T) {
	out := header +
		"BenchmarkFig7Overhead-1   \t       3\t  75720882 ns/op\t 7511416 B/op\t   49103 allocs/op\n" +
		"BenchmarkFig7Overhead-1   \t       3\t  71000000 ns/op\t 7511416 B/op\t   49104 allocs/op\n"
	rs, err := parseResults("BenchmarkFig7Overhead", out)
	if err != nil {
		t.Fatal(err)
	}
	if want := []result{{75720882, 49103}, {71000000, 49104}}; !slices.Equal(rs, want) {
		t.Fatalf("results = %v, want %v", rs, want)
	}
}

func TestParseResultsNoMatch(t *testing.T) {
	for name, out := range map[string]string{
		"other benchmark": header + "BenchmarkSealBatch \t20000\t 548 ns/op\t 0 B/op\t 0 allocs/op\n",
		"no -benchmem":    header + "BenchmarkPRFKeystream \t20000\t 98.5 ns/op\n",
		"empty":           "",
	} {
		_, err := parseResults("BenchmarkPRFKeystream", out)
		if err == nil || !strings.Contains(err.Error(), "no -benchmem result line") {
			t.Errorf("%s: err = %v, want no result line", name, err)
		}
	}
}
