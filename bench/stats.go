package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile
// (choosing-metrics §1: "the highest percentile that has at least ten
// samples beyond it").
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule. It refuses a percentile with fewer than minTail
// samples beyond it: a p99 of 300 samples is three numbers, not a
// distribution.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p, n, beyond, minTail)
	}
	return sorted[rank-1], nil
}

// median returns the middle value (mean of the two middle values for an
// even count). It sorts a copy.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), because
// that is the rule the acceptance check applies to this benchmark's runs.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}

// windowRates turns the completion times of fixed-size windows into one
// throughput per window. ends[k] is when the last item of window k
// completed, measured from the same origin as start.
func windowRates(start float64, ends []float64, itemsPerWindow int) []float64 {
	rates := make([]float64, len(ends))
	prev := start
	for k, end := range ends {
		rates[k] = float64(itemsPerWindow) / (end - prev)
		prev = end
	}
	return rates
}
