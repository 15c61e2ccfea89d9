// Command ipda-sim runs one configurable iPDA simulation and prints a
// round report: deployment statistics, tree construction outcome, the two
// tree totals, the integrity verdict, and optional attack results.
//
// Usage:
//
//	ipda-sim -nodes 400                       # clean COUNT round
//	ipda-sim -nodes 400 -query sum -lo 10 -hi 40
//	ipda-sim -nodes 400 -pollute 17 -delta 500
//	ipda-sim -nodes 400 -eavesdrop 0.1        # measure disclosure
//	ipda-sim -nodes 400 -compare              # also run the TAG baseline
//	ipda-sim -nodes 400 -rounds 8 -churn 0.05 -repair   # churn + tree repair
//	ipda-sim -nodes 400 -epochs 96 -repair    # streaming: a 24-hour metering day
//	ipda-sim -nodes 400 -epochs 96 -interval 900 -churn 0.01 -repair
//	ipda-sim -nodes 400 -kill 17,42 -repair   # scripted crashes before round 0
//	ipda-sim -nodes 400 -metrics out.prom     # Prometheus metric snapshot
//	ipda-sim -nodes 400 -spans round.trace.json  # query trace for Perfetto
//	ipda-sim -nodes 400 -qtrace q.jsonl       # causal per-query trace (see ipda-trace)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"github.com/ipda-sim/ipda"
	"github.com/ipda-sim/ipda/internal/rng"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 400, "number of sensor nodes")
		field       = flag.Float64("field", 400, "field side in meters")
		radio       = flag.Float64("range", 50, "radio range in meters")
		slices      = flag.Int("l", 2, "slices per tree (l)")
		threshold   = flag.Int64("th", 5, "integrity threshold Th")
		seed        = flag.Uint64("seed", 1, "random seed")
		query       = flag.String("query", "count", "count | sum | average | variance | min | max")
		lo          = flag.Int64("lo", 1, "reading range low (sum-family queries)")
		hi          = flag.Int64("hi", 100, "reading range high")
		pollute     = flag.Int("pollute", 0, "node ID to turn into a polluter (0 = none)")
		delta       = flag.Int64("delta", 1000, "pollution delta")
		eavesdrop   = flag.Float64("eavesdrop", -1, "per-link compromise probability (-1 = off)")
		rounds      = flag.Int("rounds", 1, "number of query rounds to run")
		epochs      = flag.Int("epochs", 0, "streaming mode: run this many metering epochs with the standing day-query mix (0 = single-query mode)")
		interval    = flag.Float64("interval", 900, "streaming mode: simulated seconds per epoch (900 = 15-minute metering intervals)")
		churn       = flag.Float64("churn", 0, "per-round probability that each live node crashes")
		churnRec    = flag.Float64("churn-recover", 0.25, "per-round probability that each dead node recovers")
		kill        = flag.String("kill", "", "comma-separated node IDs crashed before round 0")
		repair      = flag.Bool("repair", false, "re-attach orphaned aggregators around dead parents between rounds")
		cipher      = flag.String("cipher", "aes", "link-encryption keystream suite: aes | sha256 (results are suite-independent)")
		macScheme   = flag.String("mac", "csma", "channel-access scheme: csma | tdma")
		coalesce    = flag.Bool("coalesce", false, "pack each node's same-round slices into one multi-slice frame (changes byte/frame counts)")
		compare     = flag.Bool("compare", false, "also run the TAG baseline")
		metricsFile = flag.String("metrics", "", "write a Prometheus text-format metric snapshot to this file")
		metricsAddr = flag.String("metrics-addr", "", "after the run, serve the metric snapshot on this address (e.g. :9090) until interrupted")
		spansFile   = flag.String("spans", "", "write the query trace as Chrome trace-event JSON (load in ui.perfetto.dev)")
		qtraceFile  = flag.String("qtrace", "", "write the causal per-query trace as JSON lines to this file (inspect with ipda-trace)")
	)
	flag.Parse()

	cfg := ipda.DefaultConfig(*nodes)
	cfg.FieldSide = *field
	cfg.Range = *radio
	cfg.Slices = *slices
	cfg.Threshold = *threshold
	cfg.Seed = *seed
	cfg.Observe = *metricsFile != "" || *metricsAddr != ""
	cfg.TraceQueries = *qtraceFile != "" || *spansFile != ""
	cfg.Repair = *repair
	cfg.Cipher = *cipher
	cfg.MAC = *macScheme
	cfg.Coalesce = *coalesce
	if *churn > 0 || *kill != "" {
		faults := &ipda.Faults{CrashRate: *churn, RecoverRate: *churnRec, Seed: *seed}
		for _, tok := range strings.Split(*kill, ",") {
			if tok = strings.TrimSpace(tok); tok == "" {
				continue
			}
			id, err := strconv.Atoi(tok)
			if err != nil {
				fail(fmt.Errorf("bad -kill node %q: %w", tok, err))
			}
			faults.Events = append(faults.Events, ipda.FaultEvent{Round: 0, Node: id})
		}
		cfg.Faults = faults
	}

	net, err := ipda.Deploy(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("deployment: %d nodes, avg degree %.1f\n", net.Size(), net.AvgDegree())
	fmt.Printf("trees:      coverage %.1f%%, participation %.1f%% (%d sensors)\n",
		100*net.Coverage(), 100*net.Participation(), net.Participants())

	var eav *ipda.Eavesdropper
	if *eavesdrop >= 0 {
		eav = net.AttachEavesdropper(*eavesdrop)
	}
	if *pollute > 0 {
		net.InjectPollution(*pollute, *delta)
		fmt.Printf("attack:     node %d pollutes by %+d\n", *pollute, *delta)
	}

	if cfg.Faults != nil {
		fmt.Printf("faults:     churn %.1f%%/round (recover %.1f%%), %d scripted kill(s), repair %v\n",
			100*cfg.Faults.CrashRate, 100*cfg.Faults.RecoverRate, len(cfg.Faults.Events), cfg.Repair)
	}

	if *epochs > 0 {
		runStream(net, *epochs, *interval)
	} else {
		kind, ok := map[string]ipda.Kind{
			"count": ipda.Count, "sum": ipda.Sum, "average": ipda.Average,
			"variance": ipda.Variance, "min": ipda.Min, "max": ipda.Max,
		}[*query]
		if !ok {
			fail(fmt.Errorf("unknown query %q", *query))
		}
		readings := make([]int64, net.Size())
		r := rng.New(*seed).SplitString("ipda-sim/readings")
		for i := 1; i < len(readings); i++ {
			readings[i] = *lo + r.Int64n(*hi-*lo+1)
		}
		var res *ipda.QueryResult
		accepted := 0
		for round := 0; round < *rounds; round++ {
			var err error
			res, err = net.Query(kind, readings)
			if err != nil {
				fail(err)
			}
			if res.Accepted {
				accepted++
			}
			if *rounds > 1 || cfg.Faults != nil {
				verdict := "ACCEPTED"
				if !res.Accepted {
					verdict = "REJECTED"
				}
				fmt.Printf("round %-3d   %s |diff| %-4d dead %-3d skipped %-3d repaired %-3d contributors %d/%d\n",
					round, verdict, abs(res.BlueSum-res.RedSum),
					res.Dead, res.Skipped, res.Repaired, res.RedContributors, res.BlueContributors)
			}
		}
		fmt.Printf("query %s:   red %d, blue %d, |diff| %d\n",
			*query, res.RedSum, res.BlueSum, abs(res.BlueSum-res.RedSum))
		if *rounds > 1 {
			fmt.Printf("verdict:    %d/%d rounds accepted; last value = %.4g\n", accepted, *rounds, res.Value)
		} else if res.Accepted {
			fmt.Printf("verdict:    ACCEPTED, value = %.4g\n", res.Value)
		} else {
			fmt.Println("verdict:    REJECTED (integrity violation or heavy loss)")
		}
		fmt.Printf("traffic:    %d bytes on the air\n", res.Bytes)
		if *coalesce {
			frames, slices := net.Coalescing()
			avg := 0.0
			if frames > 0 {
				avg = float64(slices) / float64(frames)
			}
			fmt.Printf("coalesce:   %d multi-slice frames carried %d slices (%.2f slices/frame)\n",
				frames, slices, avg)
		}

		if eav != nil {
			fmt.Printf("eavesdrop:  p_x=%.3f disclosed %.2f%% of participant readings (theory %.3g)\n",
				*eavesdrop, 100*eav.DisclosureRate(), ipda.TheoreticalDisclosure(*eavesdrop, *slices))
		}

		if *compare {
			tg, err := ipda.DeployTAG(cfg)
			if err != nil {
				fail(err)
			}
			tres, err := tg.Query(kind, readings)
			if err != nil {
				fail(err)
			}
			fmt.Printf("TAG:        value %.4g, %d bytes (iPDA/TAG byte ratio %.2f, analytic msg ratio %.2f)\n",
				tres.Value, tres.Bytes, float64(res.Bytes)/float64(tres.Bytes), ipda.OverheadRatio(*slices))
		}
	}

	if q := net.QueryTrace(); q != nil {
		if *qtraceFile != "" {
			writeFile(*qtraceFile, q.WriteJSONL)
			fmt.Printf("qtrace:     %d spans written to %s (%d dropped); inspect with ipda-trace\n",
				q.Len(), *qtraceFile, q.Dropped())
		}
		if *spansFile != "" {
			writeFile(*spansFile, q.WriteChromeTrace)
			fmt.Printf("spans:      %d spans written to %s (%d dropped); load in ui.perfetto.dev\n",
				q.Len(), *spansFile, q.Dropped())
		}
	}

	if o := net.Obs(); o != nil {
		if *metricsFile != "" {
			writeFile(*metricsFile, o.WritePrometheus)
			fmt.Printf("metrics:    snapshot written to %s\n", *metricsFile)
		}
		if *metricsAddr != "" {
			// The registry is not safe for concurrent use, so render the
			// snapshot once, after the run, and serve the frozen bytes.
			var buf bytes.Buffer
			if err := o.WritePrometheus(&buf); err != nil {
				fail(err)
			}
			snapshot := buf.Bytes()
			http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4")
				w.Write(snapshot)
			})
			fmt.Printf("metrics:    serving final snapshot on http://%s/metrics (ctrl-c to stop)\n", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, nil); err != nil {
				fail(err)
			}
		}
	}
}

// runStream drives the continuous smart-metering pipeline: the standing
// day-query mix (per-interval SUM, hourly AVG/VAR, 3-hour peak MAX) over
// diurnal household profiles, one epoch per metering interval.
func runStream(net *ipda.Network, epochs int, interval float64) {
	eph := int(3600/interval + 0.5)
	if eph < 1 {
		eph = 1
	}
	res, err := net.RunStream(ipda.StreamConfig{
		Epochs:   epochs,
		Interval: interval,
		Queries:  ipda.DayQueries(eph),
		Readings: func(id, epoch int) int64 {
			return ipda.DiurnalLoad(id, float64(epoch)*interval/3600)
		},
		Metered: true,
	})
	if err != nil {
		fail(err)
	}
	noData := 0
	var repaired int
	for _, q := range res.Firings {
		if q.NoData {
			noData++
		}
		repaired += q.Repaired
	}
	fmt.Printf("stream:     %d epochs x %.0f s = %.1f h simulated, %d readings collected\n",
		res.Epochs, interval, res.SimSeconds/3600, res.Readings)
	fmt.Printf("firings:    %d total: %d accepted, %d rejected (%d with no data), %d repairs applied\n",
		len(res.Firings), res.Accepted, res.Rejected, noData, repaired)
	fmt.Printf("throughput: %.4g readings/s (simulated time)\n", res.ReadingsPerSecond)
	fmt.Printf("energy:     %.4g J network total, %.4g uJ/reading (radio + idle)\n",
		res.Joules, 1e6*res.JoulesPerReading)
	fmt.Printf("rounds:     %d cumulative aggregation rounds, link-key era %d\n", res.Rounds, res.KeyEra)
	if frames, slices := net.Coalescing(); frames > 0 {
		fmt.Printf("coalesce:   %d multi-slice frames carried %d slices (%.2f slices/frame)\n",
			frames, slices, float64(slices)/float64(frames))
	}
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := write(f); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ipda-sim:", err)
	os.Exit(1)
}
