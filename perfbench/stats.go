package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is the number of samples that must lie above a tail
// percentile before it is worth reporting: with fewer, the value is one
// or two outliers, not a percentile.
const minBeyond = 10

// dist is a sorted sample of one quantity.
type dist []float64

// newDist sorts a copy of xs.
func newDist(xs []float64) dist {
	d := slices.Clone(xs)
	slices.Sort(d)
	return d
}

// durations converts durations to a sorted sample in the given unit.
func durations(ds []time.Duration, unit time.Duration) dist {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return newDist(xs)
}

// rank is the 1-based nearest rank of the p-quantile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	return min(max(r, 1), n)
}

// quantile is the p-quantile by nearest rank, 0 for an empty sample.
func (d dist) quantile(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return d[rank(len(d), p)-1]
}

// tail is a tail percentile with the count of samples ranked above it;
// ok reports whether at least minBeyond samples lie beyond.
func (d dist) tail(p float64) (v float64, beyond int, ok bool) {
	if len(d) == 0 {
		return 0, 0, false
	}
	r := rank(len(d), p)
	beyond = len(d) - r
	return d[r-1], beyond, beyond >= minBeyond
}

// mean is the arithmetic mean, 0 for an empty sample.
func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d {
		s += x
	}
	return s / float64(len(d))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
