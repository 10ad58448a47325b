package main

import (
	"math"
	"slices"
	"time"
)

// tailLadder is the set of percentiles the tail rule chooses from, in
// tenths of a percent.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest ladder percentile that leaves at
// least minBeyond of n samples above it; ok is false when even the
// median does not.
func tailPercentile(n int) (p float64, ok bool) {
	for _, pm := range tailLadder {
		if n*(1000-pm) >= minBeyond*1000 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (NaN for no samples). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// durMedian is the median of ds in seconds.
func durMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// ratio is a/b, 0 when b is 0 (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
