// Package metrics computes the evaluation metrics of Section IV-B from
// protocol outputs: aggregation accuracy (Figure 8c) and per-node traffic
// summaries (Figure 7). Tree coverage and participation (Figures 8a and
// 8b) are tree.Forest's CoverageFraction and ParticipationFraction.
package metrics

import "math"

// Accuracy returns the paper's accuracy metric: the ratio of the collected
// aggregate to the true aggregate over all sensors. 1.0 is lossless; the
// metric exceeds 1 only through noise and is clamped at 0 from below.
func Accuracy(collected, truth float64) float64 {
	if truth == 0 {
		if collected == 0 {
			return 1
		}
		return 0
	}
	acc := collected / truth
	if math.IsNaN(acc) || acc < 0 {
		return 0
	}
	return acc
}

// TrueSum sums readings over all sensor nodes (index 0, the base station,
// excluded) — the denominator of the accuracy metric.
func TrueSum(readings []int64) int64 {
	var s int64
	for i := 1; i < len(readings); i++ {
		s += readings[i]
	}
	return s
}

// BytesPerNode normalizes a traffic total over the deployment size.
func BytesPerNode(totalBytes uint64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(totalBytes) / float64(n)
}
