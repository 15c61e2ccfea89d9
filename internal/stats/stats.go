// Package stats provides the small statistical toolkit the experiment
// harness uses to summarize repeated simulation trials: running moments
// and confidence intervals.
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations and reports their moments. The zero value
// is an empty sample ready to use.
type Sample struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations (Welford)
	max  float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	if s.n == 1 || x > s.max {
		s.max = x
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 { return s.mean }

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 { return s.max }

// Variance returns the unbiased sample variance.
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean.
func (s *Sample) CI95() float64 { return 1.96 * s.StdErr() }

// String summarizes the sample as "mean ± ci95 (n=N)".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.CI95(), s.n)
}

// Merge folds other into s, as if every observation of other had been Added
// to s (Chan et al. parallel-variance combination).
func (s *Sample) Merge(other *Sample) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n := s.n + other.n
	delta := other.mean - s.mean
	mean := s.mean + delta*float64(other.n)/float64(n)
	m2 := s.m2 + other.m2 + delta*delta*float64(s.n)*float64(other.n)/float64(n)
	if other.max > s.max {
		s.max = other.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
}
