package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least a q share of the samples at or below
// it. 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// tailQuantiles are the percentiles a tail figure may be reported at,
// highest first.
var tailQuantiles = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

// tailQuantile picks the highest percentile that still has at least
// ten samples beyond it among n samples, so a tail figure never rests
// on a handful of outliers. ok is false when even the median has
// fewer than ten samples beyond it.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailQuantiles {
		// Round before comparing: 1000·(1−0.99) is 9.999… in floating
		// point, and a thousand samples do leave ten beyond p99.
		if math.Round(float64(n)*(1-q)*1e6)/1e6 >= 10 {
			return q, true
		}
	}
	return 0, false
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
