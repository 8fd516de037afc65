package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of a
// sorted sample: the smallest value with at least p% of the sample at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n sorted
// samples. The small tolerance keeps p*n/100 products that are whole
// numbers in exact arithmetic (99.9% of 10000) from rounding up a rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median averages the two middle values of an even-sized sample.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailLadder is the percentiles a report may quote, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the reporting rule for a latency tail: the highest
// percentile on the ladder with at least ten samples beyond it. A sample
// too small for any rung reports its median.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// quartiles returns the first, second and third quartile exactly as
// Python's statistics.quantiles(v, n=4) does (the "exclusive" method),
// so the spread printed here is the one the acceptance check computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
