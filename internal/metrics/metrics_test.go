package metrics

import (
	"math"
	"testing"
)

func TestAccuracy(t *testing.T) {
	cases := []struct {
		collected, truth, want float64
	}{
		{100, 100, 1},
		{90, 100, 0.9},
		{0, 100, 0},
		{0, 0, 1},
		{5, 0, 0},
		{-3, 100, 0},
	}
	for _, c := range cases {
		if got := Accuracy(c.collected, c.truth); got != c.want {
			t.Errorf("Accuracy(%v, %v) = %v, want %v", c.collected, c.truth, got, c.want)
		}
	}
}

func TestAccuracyNonFinite(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name             string
		collected, truth float64
		want             float64
	}{
		{"nan collected", nan, 100, 0},
		{"nan truth treated as nonzero", 100, nan, 0}, // 100/NaN is NaN → clamp
		{"inf over inf", inf, inf, 0},
		{"negative truth flips sign", 50, -100, 0},
		{"both negative", -50, -100, 0.5},
		{"inf collected", inf, 100, inf}, // noise can only inflate, not clamp
	}
	for _, c := range cases {
		got := Accuracy(c.collected, c.truth)
		if math.IsNaN(c.want) != math.IsNaN(got) || (!math.IsNaN(c.want) && got != c.want) {
			t.Errorf("%s: Accuracy(%v, %v) = %v, want %v", c.name, c.collected, c.truth, got, c.want)
		}
	}
}
