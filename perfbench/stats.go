package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported high
// percentile: with fewer, the percentile is one or two outliers, not a
// property of the system.
const minTail = 10

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailQuantile is quantile for a high percentile: it fails unless at least
// minTail samples lie beyond the rank it reports.
func tailQuantile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	beyond := n - int(math.Ceil(q*float64(n)))
	if beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples leave %d",
			q*100, minTail, n, beyond)
	}
	return quantile(sorted, q), nil
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a rate of something that never
// happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
