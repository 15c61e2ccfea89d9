package ipda_test

import (
	"fmt"
	"log"

	"github.com/ipda-sim/ipda"
)

// ExampleDeploy shows the minimal deploy-and-query flow.
func ExampleDeploy() {
	cfg := ipda.DefaultConfig(400) // the paper's evaluation setup
	net, err := ipda.Deploy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := net.Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("trees agree:", res.RedSum == res.BlueSum)
	fmt.Println("accepted:", res.Accepted)
	// Output:
	// trees agree: true
	// accepted: true
}

// ExampleNetwork_InjectPollution shows the integrity check rejecting a
// polluted round.
func ExampleNetwork_InjectPollution() {
	net, err := ipda.Deploy(ipda.DefaultConfig(400))
	if err != nil {
		log.Fatal(err)
	}
	net.InjectPollution(net.TreeAggregators(0)[0], 1000)
	res, err := net.Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("accepted:", res.Accepted)
	// Output:
	// accepted: false
}

// ExampleOverheadRatio shows the analytic iPDA/TAG cost ratio.
func ExampleOverheadRatio() {
	for l := 1; l <= 3; l++ {
		fmt.Printf("l=%d ratio=%.1f\n", l, ipda.OverheadRatio(l))
	}
	// Output:
	// l=1 ratio=1.5
	// l=2 ratio=2.5
	// l=3 ratio=3.5
}
