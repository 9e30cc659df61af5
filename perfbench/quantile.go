package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile for it to be
// reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted samples and whether it may be reported, i.e. whether at least
// minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 || p <= 0 || p > 100 {
		return 0, false
	}
	rank := nearestRank(n, p)
	return sorted[rank-1], n-rank >= minBeyond
}

// nearestRank is the 1-based rank of the p-th percentile among n samples
// (the tolerance keeps 99.9% of 10000 at rank 9990 despite rounding).
func nearestRank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// highestReportable is the largest of the candidate percentiles (given in
// ascending order) that the sample count supports, or 0 if none is.
func highestReportable(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if n > 0 && n-nearestRank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of the samples (mean of the middle pair for even counts); 0 for
// none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
