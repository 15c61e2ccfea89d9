// Command bench is the simulator's end-to-end and per-layer benchmark.
//
// It drives the simulator's layers through their public entry points in
// closed loops — each operation starts when the previous one returns —
// on four workloads that stress different layers (see README.md). It times
// every call from outside, checks every output against an independent
// oracle, and prints each metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the
// run records spans around every layer call, calibrates the hot calls,
// prints a per-layer table and reports the per-layer metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload steady-rounds --seed 2024 --seconds 25 --trace 0
//	bash bench/run.sh --workload all --json .bench_build/all.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all to run each in its own child process")
	seed := fs.Uint64("seed", 2024, "seed every input derives from")
	seconds := fs.Float64("seconds", 25, "length of the timed loop")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.jsonl)")
	jsonOut := fs.String("json", "", "also write every result, with its sim_digest, to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if !(*seconds >= 0) {
		return fmt.Errorf("-seconds must be non-negative, got %v", *seconds)
	}
	if *name == "all" {
		return runAll(fs, stdout, stderr, *jsonOut)
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want all or one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	c := config{seed: *seed, seconds: *seconds, setups: 5, workers: 2, shards: 2, calib: 500 * time.Millisecond}
	out := *traceOut
	if *trace == 1 && out == "" {
		out = filepath.Join(".bench_build", "trace-"+w.name+".jsonl")
	}
	res, err := run(w, c, *trace == 1, out, stdout)
	if err != nil {
		return err
	}
	report(stdout, res)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, []*result{res}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

func report(w io.Writer, res *result) {
	fmt.Fprintf(w, "sim_digest %s\n", res.Digest)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "FAILED: %s\n", e)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayerDefs...) {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
}

// runAll runs every workload in its own child process, in a fixed order,
// so each one's peak RSS and GC statistics are its own.
func runAll(fs *flag.FlagSet, stdout, stderr io.Writer, jsonOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	var results []*result
	correct := true
	for _, w := range workloads {
		tmp, err := os.CreateTemp(".bench_build", "child-*.json")
		if err != nil {
			return err
		}
		tmp.Close()
		args := []string{"-workload", w.name, "-json", tmp.Name()}
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "workload" && f.Name != "json" && f.Name != "trace-out" {
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		err = cmd.Run()
		var rs []*result
		if err == nil {
			rs, err = readJSON(tmp.Name())
		}
		os.Remove(tmp.Name())
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, rs...)
		correct = correct && rs[0].Correct
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, results); err != nil {
			return err
		}
	}
	if !correct {
		return errors.New("a workload failed its checks")
	}
	return nil
}

func writeJSON(path string, rs []*result) error {
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, err
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s holds no result", path)
	}
	return rs, nil
}
