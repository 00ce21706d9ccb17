package main

import (
	"math"
	"sort"
)

// summary describes one sample set: its size, median, 95th and 99th
// percentiles, and
// the highest percentile that still has at least tailMargin samples beyond
// it (the diagnostic the run record prints next to p99).
type summary struct {
	N     int
	Mean  float64
	P50   float64
	P95   float64
	P99   float64
	Max   float64
	TailQ float64 // highest quantile with >= tailMargin samples above it
	Tail  float64 // value at TailQ
}

// tailMargin is how many samples must lie beyond a reported percentile for
// it to count as measured rather than extrapolated.
const tailMargin = 10

// quantile returns the q-quantile (0 <= q <= 1) of sorted samples by linear
// interpolation between closest ranks, the definition numpy and Python's
// statistics module ("inclusive") use. It returns NaN for an empty set.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailQuantile is the highest quantile with at least tailMargin samples
// strictly beyond its rank: 1 - tailMargin/n. It is 0 when the set is too
// small to have any such quantile.
func tailQuantile(n int) float64 {
	if n <= tailMargin {
		return 0
	}
	return 1 - float64(tailMargin)/float64(n)
}

// summarize sorts samples in place and describes them.
func summarize(samples []float64) summary {
	s := summary{N: len(samples)}
	if s.N == 0 {
		return s
	}
	sort.Float64s(samples)
	var sum float64
	for _, v := range samples {
		sum += v
	}
	s.Mean = sum / float64(s.N)
	s.P50 = quantile(samples, 0.5)
	s.P95 = quantile(samples, 0.95)
	s.P99 = quantile(samples, 0.99)
	s.Max = samples[s.N-1]
	s.TailQ = tailQuantile(s.N)
	s.Tail = quantile(samples, s.TailQ)
	return s
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return quantile(c, 0.5)
}
