// Package metrics computes the evaluation metrics of Section IV-B from
// protocol outputs: aggregation accuracy (Figure 8c). Tree coverage and participation (Figures 8a and
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
