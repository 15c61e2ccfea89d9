// Package privacy formalizes the privacy goal of slicing-based aggregation
// as an indistinguishability game — the "indistinguishable privacy"
// framework the reproduction request's nominal title refers to.
//
// The game is the standard two-world experiment. The adversary names two
// candidate readings v0 and v1 for a target node. A secret coin picks one;
// the node slices it into l additive shares per tree exactly as in Phase
// II; every link is compromised independently with probability p_x; the
// adversary observes the shares on compromised links and guesses the coin.
// The scheme is ε-indistinguishable at p_x if no adversary guesses with
// advantage (2·Pr[correct] − 1) above ε.
//
// Two facts the game makes precise, and that RunGame measures empirically:
//
//   - With full-ring uniform shares (slicing.SplitAppend), any strict
//     subset of a share set is exactly uniform, so the advantage comes
//     only from full reconstructions: ε ≈ 1 − (1 − p_x^l)², Equation
//     (11)'s leaf form. Below full reconstruction the adversary is blind.
//   - With bounded shares (slicing.SplitBoundedAppend), share magnitudes
//     leak the reading's scale: if |v0| and |v1| differ strongly, a single
//     observed share separates the worlds with noticeable advantage. This
//     is the price of loss-tolerance, and the game quantifies it.
//
// The built-in adversary plays optimally-enough: exact reconstruction when
// it has a complete set, otherwise a per-share likelihood-ratio test over
// the bounded share distribution, otherwise a fair coin.
package privacy

import (
	"fmt"
	"math"

	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/slicing"
)

// Config parameterizes one indistinguishability experiment.
type Config struct {
	L      int     // slices per tree
	Spread int64   // bounded-share spread; 0 selects full-ring shares
	Px     float64 // per-link compromise probability
	V0, V1 int64   // the two candidate readings
	Trials int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.L < 1 {
		return fmt.Errorf("privacy: L must be >= 1, got %d", c.L)
	}
	if c.Px < 0 || c.Px > 1 {
		return fmt.Errorf("privacy: Px must be in [0,1], got %v", c.Px)
	}
	if c.Trials < 1 {
		return fmt.Errorf("privacy: Trials must be >= 1, got %d", c.Trials)
	}
	if c.V0 == c.V1 {
		return fmt.Errorf("privacy: candidate readings must differ")
	}
	if c.Spread < 0 {
		return fmt.Errorf("privacy: Spread must be >= 0, got %d", c.Spread)
	}
	return nil
}

// Result summarizes one experiment.
type Result struct {
	Trials              int
	Correct             int
	FullReconstructions int // trials where a complete share set leaked
	// Advantage is the empirical distinguishing advantage
	// 2·(Correct/Trials) − 1; its standard error is roughly
	// 1/sqrt(Trials).
	Advantage float64
}

// RunGame plays the two-world game cfg.Trials times and returns the
// adversary's empirical advantage.
func RunGame(cfg Config, r *rng.Stream) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	var res Result
	res.Trials = cfg.Trials
	var shares []int64 // both trees' shares, reused across trials
	for t := 0; t < cfg.Trials; t++ {
		secret := r.Intn(2)
		value := cfg.V0
		if secret == 1 {
			value = cfg.V1
		}
		// The target reports as a leaf: l shares to each tree, red then
		// blue, all transmitted (the strongest exposure; aggregators keep
		// one share off the air), drawn as core draws them.
		shares = shares[:0]
		for range 2 {
			if cfg.Spread > 0 {
				shares = slicing.SplitBoundedAppend(shares, value, cfg.L, cfg.Spread, r)
			} else {
				shares = slicing.SplitAppend(shares, value, cfg.L, r)
			}
		}
		red, blue := shares[:cfg.L], shares[cfg.L:]
		redSeen := observe(red, cfg.Px, r)
		blueSeen := observe(blue, cfg.Px, r)
		guess, full := distinguish(cfg, red, blue, redSeen, blueSeen, r)
		if full {
			res.FullReconstructions++
		}
		if guess == secret {
			res.Correct++
		}
	}
	res.Advantage = 2*float64(res.Correct)/float64(res.Trials) - 1
	return res, nil
}

// observe returns which share indices the adversary sees.
func observe(shares []int64, px float64, r *rng.Stream) []bool {
	seen := make([]bool, len(shares))
	for i := range shares {
		seen[i] = r.Bool(px)
	}
	return seen
}

// distinguish implements the built-in adversary.
func distinguish(cfg Config, red, blue []int64, redSeen, blueSeen []bool, r *rng.Stream) (guess int, full bool) {
	// Exact reconstruction from a complete set.
	for _, set := range []struct {
		shares []int64
		seen   []bool
	}{{red, redSeen}, {blue, blueSeen}} {
		if allSeen(set.seen) {
			sum := slicing.Combine(set.shares)
			switch sum {
			case cfg.V0:
				return 0, true
			case cfg.V1:
				return 1, true
			}
		}
	}
	// Likelihood-ratio test over observed shares (bounded slicing only:
	// full-ring shares are uniform, carrying no signal below a full set).
	if cfg.Spread > 0 {
		ll0, ll1 := 0.0, 0.0
		informative := false
		for _, set := range []struct {
			shares []int64
			seen   []bool
		}{{red, redSeen}, {blue, blueSeen}} {
			// Only the first l−1 shares follow the bounded-uniform law;
			// the last is a dependent remainder the simple adversary
			// skips.
			for i := 0; i < len(set.shares)-1; i++ {
				if !set.seen[i] {
					continue
				}
				informative = true
				ll0 += shareLogLikelihood(set.shares[i], cfg.V0, cfg.Spread)
				ll1 += shareLogLikelihood(set.shares[i], cfg.V1, cfg.Spread)
			}
		}
		if informative && ll0 != ll1 {
			if ll1 > ll0 {
				return 1, false
			}
			return 0, false
		}
	}
	return r.Intn(2), false
}

func allSeen(seen []bool) bool {
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return len(seen) > 0
}

// shareLogLikelihood is log P[share | reading v] for a non-final bounded
// share: uniform over [−B, B], B = spread·max(1, |v|).
func shareLogLikelihood(share, v, spread int64) float64 {
	mag := v
	if mag < 0 {
		mag = -mag
	}
	if mag < 1 {
		mag = 1
	}
	bound := spread * mag
	if share < -bound || share > bound {
		return math.Inf(-1)
	}
	return -math.Log(float64(2*bound + 1))
}

// TheoreticalLeafAdvantage returns the analytic full-reconstruction
// advantage for a leaf under full-ring shares: the probability that at
// least one of the two share sets is completely observed,
// 1 − (1 − px^l)². Below that event the view is uniform, so this is also
// the optimal advantage.
func TheoreticalLeafAdvantage(px float64, l int) float64 {
	a := math.Pow(px, float64(l))
	return 1 - (1-a)*(1-a)
}
