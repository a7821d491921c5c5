package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (the "R-7" definition numpy and
// most spreadsheets use). xs need not be sorted; it is not modified.
// An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	if frac == 0 || s[lo] == s[hi] {
		return s[lo]
	}
	if math.IsInf(s[hi], 1) {
		return s[hi] // a failed request (+Inf) poisons every quantile it touches
	}
	return s[lo] + frac*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// windowQuantiles splits xs (in time order) into k consecutive
// windows and returns each window's q-quantile.
func windowQuantiles(xs []float64, k int, q float64) []float64 {
	if k < 1 || len(xs) < k {
		return []float64{quantile(xs, q)}
	}
	per := make([]float64, k)
	for i := range per {
		per[i] = quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
	}
	return per
}

// windowedQuantile is the median of windowQuantiles: a burst of host
// noise moves one window's tail instead of the whole estimate.
func windowedQuantile(xs []float64, k int, q float64) float64 {
	return median(windowQuantiles(xs, k, q))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDuration times fn reps times and returns the median call time.
func medianDuration(reps int, fn func(i int)) time.Duration {
	ds := make([]float64, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn(i)
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}
