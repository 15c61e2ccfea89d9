// Package aggregate defines the additive aggregation functions of Section
// II-B of the paper.
//
// iPDA aggregates a single additive channel per round: each participating
// node contributes an int64 value (plus an implicit count of 1), and the
// network computes the wrapping sum. Every statistic the paper discusses
// reduces to one or more such additive rounds:
//
//	SUM       one round of raw readings
//	COUNT     one round of 1s
//	AVERAGE   SUM / COUNT
//	VARIANCE  Σr² /N − (Σr/N)²  — two additive rounds (r² and r) plus count
//	MIN/MAX   k-th power means: max ≈ (Σ rᵢᵏ)^(1/k) for large k
//
// Spec maps readings to per-round contributions; Finalize maps the summed
// rounds back to the statistic. FixedPointScale handles the fractional
// precision additive integer channels cannot natively express.
package aggregate

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoData marks a Finalize failure caused by an empty collection: the
// integrity check passed trivially (both trees delivered nothing, so the
// totals agree) but the round carries no contributions to finalize.
// Long-running callers treat it as a degraded round rather than a fault.
var ErrNoData = errors.New("no data collected")

// Kind identifies an aggregation function.
type Kind uint8

const (
	// Sum computes Σ rᵢ.
	Sum Kind = iota + 1
	// Count computes the number of participating readings.
	Count
	// Average computes Σ rᵢ / N.
	Average
	// Variance computes Σrᵢ²/N − (Σrᵢ/N)².
	Variance
	// Min approximates min rᵢ via the power-mean trick with negative
	// exponent (Section II-B); readings must be positive.
	Min
	// Max approximates max rᵢ via the power-mean trick; readings must be
	// non-negative.
	Max
)

func (k Kind) String() string {
	switch k {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Average:
		return "average"
	case Variance:
		return "variance"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Spec is a fully-parameterized aggregation query.
type Spec struct {
	Kind Kind
	// Power is the exponent k of the power-mean approximation for Min and
	// Max (higher = more accurate, narrower usable dynamic range). Ignored
	// for other kinds.
	Power int
	// Normal is the declared upper bound on readings for Min/Max rounds
	// (the base station knows the sensor's physical range). Contributions
	// are carried in fixed point relative to Normal:
	//
	//   Max: readings in [0, Normal]; readings far below Normal underflow
	//        to a zero contribution, which is harmless for a maximum.
	//   Min: readings in [MinFloor(), Normal]; smaller readings would
	//        overflow the additive channel and are rejected.
	Normal int64
}

// SpecFor returns a Spec with sensible defaults (Power 8, Normal 4096 for
// Min/Max).
func SpecFor(k Kind) Spec {
	s := Spec{Kind: k}
	if k == Min || k == Max {
		s.Power = 8
		s.Normal = 4096
	}
	return s
}

// MinFloor returns the smallest reading a Min query can carry without
// overflowing the additive channel: Normal / 2^(52/Power).
func (s Spec) MinFloor() int64 {
	if s.Power < 1 {
		return 0
	}
	return int64(math.Ceil(float64(s.Normal) / math.Pow(2, 52/float64(s.Power))))
}

// Rounds returns how many additive aggregation rounds the query needs.
func (s Spec) Rounds() int {
	if s.Kind == Variance {
		return 2 // Σr² and Σr; counts ride along with every round
	}
	return 1
}

// fixedPointScale carries power-mean contributions on the integer channel:
// Max contributions are round((r/Normal)^k · 2^52) ∈ [0, 2^52]; Min
// contributions are round((Normal/r)^k) ∈ [1, 2^52]. Either way thousands
// of nodes sum without overflowing int64.
const fixedPointScale = 1 << 52

// Contribution maps one sensor reading to its additive contribution for
// the given round (0-based). It returns an error for readings outside the
// function's domain.
func (s Spec) Contribution(reading int64, round int) (int64, error) {
	if round < 0 || round >= s.Rounds() {
		return 0, fmt.Errorf("aggregate: round %d out of range for %v", round, s.Kind)
	}
	switch s.Kind {
	case Sum, Average:
		return reading, nil
	case Count:
		return 1, nil
	case Variance:
		if round == 0 {
			if reading > math.MaxInt32 || reading < math.MinInt32 {
				return 0, fmt.Errorf("aggregate: reading %d too large for variance (r² overflow)", reading)
			}
			return reading * reading, nil
		}
		return reading, nil
	case Max:
		if s.Power < 1 || s.Normal < 1 {
			return 0, fmt.Errorf("aggregate: max requires positive Power and Normal, got %d/%d", s.Power, s.Normal)
		}
		if reading < 0 || reading > s.Normal {
			return 0, fmt.Errorf("aggregate: max requires readings in [0, %d], got %d", s.Normal, reading)
		}
		x := float64(reading) / float64(s.Normal) // in [0, 1]
		return int64(math.Round(math.Pow(x, float64(s.Power)) * fixedPointScale)), nil
	case Min:
		if s.Power < 1 || s.Normal < 1 {
			return 0, fmt.Errorf("aggregate: min requires positive Power and Normal, got %d/%d", s.Power, s.Normal)
		}
		if reading < s.MinFloor() || reading > s.Normal {
			return 0, fmt.Errorf("aggregate: min requires readings in [%d, %d], got %d", s.MinFloor(), s.Normal, reading)
		}
		x := float64(s.Normal) / float64(reading) // in [1, 2^(52/k)]
		return int64(math.Round(math.Pow(x, float64(s.Power)))), nil
	default:
		return 0, fmt.Errorf("aggregate: unknown kind %v", s.Kind)
	}
}

// Finalize maps the per-round network sums and the participant count back
// to the statistic. sums must hold Rounds() entries.
func (s Spec) Finalize(sums []int64, count uint32) (float64, error) {
	if len(sums) != s.Rounds() {
		return 0, fmt.Errorf("aggregate: %v expects %d round sums, got %d", s.Kind, s.Rounds(), len(sums))
	}
	n := float64(count)
	switch s.Kind {
	case Sum:
		return float64(sums[0]), nil
	case Count:
		return float64(sums[0]), nil
	case Average:
		if count == 0 {
			return 0, fmt.Errorf("aggregate: average of zero readings: %w", ErrNoData)
		}
		return float64(sums[0]) / n, nil
	case Variance:
		if count == 0 {
			return 0, fmt.Errorf("aggregate: variance of zero readings: %w", ErrNoData)
		}
		mean := float64(sums[1]) / n
		return float64(sums[0])/n - mean*mean, nil
	case Max:
		if sums[0] <= 0 {
			return 0, fmt.Errorf("aggregate: power-mean sum non-positive (%d): %w", sums[0], ErrNoData)
		}
		x := math.Pow(float64(sums[0])/fixedPointScale, 1/float64(s.Power))
		return x * float64(s.Normal), nil
	case Min:
		if sums[0] <= 0 {
			return 0, fmt.Errorf("aggregate: power-mean sum non-positive (%d): %w", sums[0], ErrNoData)
		}
		x := math.Pow(float64(sums[0]), 1/float64(s.Power))
		return float64(s.Normal) / x, nil
	default:
		return 0, fmt.Errorf("aggregate: unknown kind %v", s.Kind)
	}
}
