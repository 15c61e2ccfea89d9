// Multi-tree: the m > 2 generalization the paper sketches in Section
// III-B, used to defeat the collusion attack it leaves as future work in
// Section VI. Two compromised aggregators that apply the same shift on
// both trees of standard iPDA produce totals that still agree — the base
// station accepts a wrong answer. With three (or five) disjoint trees and
// majority voting, honest trees outvote the colluders and the polluted
// trees are identified by name.
package main

import (
	"fmt"
	"log"

	"github.com/ipda-sim/ipda"
)

func main() {
	cfg := ipda.DefaultConfig(600) // m > 2 needs density (Sec. III-B)
	cfg.Seed = 3

	// Baseline: standard 2-tree iPDA versus two same-delta colluders.
	two, err := ipda.Deploy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	reds, blues := two.TreeAggregators(0), two.TreeAggregators(1)
	if len(reds) == 0 || len(blues) == 0 {
		log.Fatal("degenerate trees")
	}
	two.InjectPollution(reds[0], 700)
	two.InjectPollution(blues[0], 700)
	res, err := two.Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("m=2 under collusion: red=%d blue=%d accepted=%v  <-- wrong total slips through\n",
		res.RedSum, res.BlueSum, res.Accepted)

	// m = 3: the honest third tree dissents.
	three, err := ipda.DeployMultiTree(cfg, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nm=3 deployment: %.1f%% of sensors reach all three trees\n", 100*three.Coverage())
	three.InjectPollution(three.TreeAggregators(0)[0], 700)
	three.InjectPollution(three.TreeAggregators(1)[0], 700)
	v3, err := three.Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("m=3 under collusion: totals=%v accepted=%v outliers=%v\n", v3.Totals, v3.Accepted, v3.Outliers)
	fmt.Println("  (two colluders can still out-vote one honest tree, but the dissent is visible)")

	// m = 5 tolerates f = 2 colluders outright: majority is honest.
	cfg5 := cfg
	cfg5.Nodes = 800
	cfg5.FieldSide = 350 // denser still
	five, err := ipda.DeployMultiTree(cfg5, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nm=5 deployment: %.1f%% of sensors reach all five trees\n", 100*five.Coverage())
	five.InjectPollution(five.TreeAggregators(0)[0], 700)
	five.InjectPollution(five.TreeAggregators(1)[0], 700)
	v5, err := five.Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("m=5 under collusion: totals=%v\n", v5.Totals)
	fmt.Printf("verdict: accepted=%v value=%.0f, polluted trees identified: %v\n",
		v5.Accepted, v5.Value, v5.Outliers)
}
