package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rank is the nearest rank of the p-th percentile among n samples. The
// epsilon keeps 90 % of 100 at 90: p/100*n is not exact in floating point.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// slice by nearest rank.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rank(len(asc), p)-1]
}

// tailLadder are the percentiles a tail figure may be reported at.
var tailLadder = []float64{50, 90, 99, 99.9}

// supportedTail returns the highest percentile of the ladder, at most
// want, that has at least ten of n samples beyond it — a higher one
// would rest on a handful of samples. With fewer than twenty samples
// even the median does not, and it returns 50 all the same.
func supportedTail(n int, want float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if p <= want && n > 0 && n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// tail reports the want-th percentile of an ascending slice, or the
// highest supported one below it, with the percentile it used.
func tail(asc []float64, want float64) (v, used float64) {
	used = supportedTail(len(asc), want)
	return percentile(asc, used), used
}

// quartiles returns the first, second and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), so
// the spreads printed here are the ones the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
