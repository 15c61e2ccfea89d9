// Package analysis implements the closed-form results of Section IV-A of
// the paper: the aggregation-tree coverage bound (Equations 7–10), the
// privacy-preservation capacity P_disclose (Equation 11 and Figure 5), and
// the communication-overhead ratio of Section IV-A.2.
//
// One discrepancy is worth flagging: the paper's d-regular coverage
// example claims "Φ(G) ≥ 1 − N(1 − 1/2^{2d})", and that Φ(G) ≥ 0.999 for
// N = 1000, d = 10. As printed, the bound is vacuous (deeply negative).
// Equation (9) with p_r = p_b = 1/2 gives p_i = 2·2^{−d} − 2^{−2d}, so the
// Markov bound of Equation (10) is 1 − N(2·2^{−d} − 2^{−2d}) ≈ −0.95 for
// those parameters — also not 0.999. The figure 0.999 matches
// 1 − N·2^{−2d}, i.e. treating a node as lost only when it is isolated
// from BOTH trees. We implement Equation (9)/(10) faithfully
// (CoverageLowerBound) and the example the paper evidently intended
// (PaperRegularExample), and flag the difference here and in
// EXPERIMENTS.md.
package analysis

import (
	"math"

	"github.com/ipda-sim/ipda/internal/topology"
)

// IsolationProbability returns p_i of Equation (9): the probability that a
// node of degree d ends up without a red neighbor or without a blue
// neighbor when each neighbor independently turns red with probability pr
// and blue with probability pb.
func IsolationProbability(d int, pr, pb float64) float64 {
	if d < 0 {
		panic("analysis: negative degree")
	}
	noRed := math.Pow(pb, float64(d))  // all neighbors blue => no red
	noBlue := math.Pow(pr, float64(d)) // all neighbors red => no blue
	return 1 - (1-noRed)*(1-noBlue)
}

// CoverageLowerBound returns the Markov bound of Equation (10) on Φ(G),
// the probability that every node reaches both trees: 1 − Σ_i p_i. It can
// be negative for sparse networks, in which case the bound is vacuous.
func CoverageLowerBound(degrees []int, pr, pb float64) float64 {
	sum := 0.0
	for _, d := range degrees {
		sum += IsolationProbability(d, pr, pb)
	}
	return 1 - sum
}

// ExpectedFullyCoveredFraction returns E[fraction of nodes with both
// colors in reach] = 1 − mean_i p_i — the quantity Figure 8(a) actually
// plots (unlike Φ(G), this is never vacuous).
func ExpectedFullyCoveredFraction(degrees []int, pr, pb float64) float64 {
	if len(degrees) == 0 {
		return 1
	}
	sum := 0.0
	for _, d := range degrees {
		sum += IsolationProbability(d, pr, pb)
	}
	return 1 - sum/float64(len(degrees))
}

// PaperRegularExample returns the d-regular coverage figure the paper's
// Section IV-A.1 example evidently computes: 1 − N·2^{−2d}, the
// probability bound when a node counts as lost only if isolated from both
// trees simultaneously. For N = 1000, d = 10 this is 0.99905 — the
// "Φ(G) ≥ 0.999" of the paper.
func PaperRegularExample(n, d int) float64 {
	return 1 - float64(n)*math.Pow(2, -2*float64(d))
}

// ExpectedIncomingLinks returns E[nl(i)] of Section IV-A.3: the expected
// number of slice transmissions node i receives, Σ_{j∈Nbr(i)} (2l−1)/d_j,
// assuming every neighbor slices 2l−1 transmissions uniformly over its own
// neighborhood.
func ExpectedIncomingLinks(net *topology.Network, i topology.NodeID, l int) float64 {
	sum := 0.0
	for _, j := range net.Neighbors(i) {
		dj := net.Degree(j)
		if dj == 0 {
			continue
		}
		sum += float64(2*l-1) / float64(dj)
	}
	return sum
}

// PDisclose returns Equation (11): the probability that a node's reading
// is disclosed to an adversary who breaks each link independently with
// probability px, when the node slices into l pieces and expects
// expectedIncoming incoming slice links.
//
//	P = 1 − (1 − px^l)(1 − px^{l−1+E[nl]})
func PDisclose(px float64, l int, expectedIncoming float64) float64 {
	if l < 1 {
		panic("analysis: l must be >= 1")
	}
	a := math.Pow(px, float64(l))
	b := math.Pow(px, float64(l-1)+expectedIncoming)
	return 1 - (1-a)*(1-b)
}

// PDiscloseRegular returns Equation (11) specialized to a d-regular
// network (d >> l), where E[nl(i)] = 2l−1. The paper's running example:
// l = 3, d = 10, px = 0.1 gives ~0.001.
func PDiscloseRegular(px float64, l int) float64 {
	return PDisclose(px, l, float64(2*l-1))
}

// PDiscloseNetwork returns the network average of Equation (11) over all
// non-base-station nodes — the quantity Figure 5 plots.
func PDiscloseNetwork(net *topology.Network, px float64, l int) float64 {
	if net.N() <= 1 {
		return 0
	}
	sum := 0.0
	for i := 1; i < net.N(); i++ {
		sum += PDisclose(px, l, ExpectedIncomingLinks(net, topology.NodeID(i), l))
	}
	return sum / float64(net.N()-1)
}

// OverheadRatio returns the iPDA/TAG message-count ratio of Section
// IV-A.2: (2l+1)/2. TAG sends 2 messages per node per query, iPDA sends
// 2l+1 (HELLO + 2l−1 slices + aggregate).
func OverheadRatio(l int) float64 {
	return float64(2*l+1) / 2
}

// MessagesPerNode returns the per-query message counts of Figure 4:
// TAG = 2, iPDA = 2l+1.
func MessagesPerNode(l int) (tag, ipda int) {
	return 2, 2*l + 1
}
