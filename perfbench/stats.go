package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
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

// nearestRank returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending slice: the smallest value with at least p% of the
// samples at or below it. It also returns how many samples lie beyond
// that rank.
func nearestRank(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// The epsilon keeps p·n/100 that is an integer in exact arithmetic
	// from rounding up a rank (99.9% of 10⁴ must be rank 9990).
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailLadder is the percentile ladder a tail timing is read from.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest ladder percentile that still has
// at least ten samples beyond it, and its value. Fewer than twenty
// samples leave no qualifying rung; the median is returned then, and
// the caller reports the sample count beside it.
func tailPercentile(xs []float64) (pct, value float64) {
	s := sortedCopy(xs)
	pct, value = 50, 0
	if len(s) > 0 {
		value, _ = nearestRank(s, 50)
	}
	for _, p := range tailLadder {
		v, beyond := nearestRank(s, p)
		if beyond < 10 {
			break
		}
		pct, value = p, v
	}
	return pct, value
}

// failedFrac is failed / attempted, 0 when nothing was attempted.
func failedFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	end := lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return total
}

// binomialUpper returns the smallest m with P[X > m] ≤ alpha for
// X ~ Binomial(trials, p): the largest count a correct sampler exceeds
// with probability at most alpha.
func binomialUpper(trials int, p, alpha float64) int {
	if trials <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return trials
	}
	pmf := math.Pow(1-p, float64(trials))
	cdf := pmf
	m := 0
	for m < trials && 1-cdf > alpha {
		pmf *= float64(trials-m) / float64(m+1) * p / (1 - p)
		cdf += pmf
		m++
	}
	return m
}
