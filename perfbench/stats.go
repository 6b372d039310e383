package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must leave beyond
// it: a tail read from fewer points is one or two outliers, not a tail.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, which
// it does not modify. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := rank(len(s), p) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// beyond reports how many of n samples lie strictly past the nearest-rank
// p-quantile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// samplesFor is the smallest sample count whose p-quantile leaves minTail
// samples beyond it.
func samplesFor(p float64) int {
	n := 1
	for beyond(n, p) < minTail {
		n++
	}
	return n
}

// rank is the 1-based nearest rank of the p-quantile among n samples. The
// epsilon keeps float error in p*n (0.9*100 is not exactly 90) from
// pushing an exact rank up by one.
func rank(n int, p float64) int { return int(math.Ceil(p*float64(n) - 1e-9)) }
