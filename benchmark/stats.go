package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 over 200 samples rests on two values and is noise.
const minTail = 10

// pct is one percentile as an exact order statistic over raw samples.
type pct struct {
	Value float64
	N     int  // samples the percentile was taken over
	OK    bool // at least minTail samples lie beyond it
}

// percentile returns the nearest-rank order statistic of q over xs: the
// smallest sample v with at least ceil(q*n) samples <= v. xs is sorted in
// place. Histograms are not used: their bucket width (6-12.5% in
// traffic.Hist) is wider than the run-to-run budget of a median.
func percentile(xs []float64, q float64) pct {
	n := len(xs)
	if n == 0 {
		return pct{}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return pct{Value: xs[rank-1], N: n, OK: n-rank >= minTail}
}

// slicedPct is the median, over time slices, of each slice's q-th
// percentile; slice[i] is sample i's slice. A slice whose percentile has
// fewer than minTail samples beyond it is left out.
func slicedPct(slice []int, xs []float64, q float64) pct {
	by := make(map[int][]float64)
	for i, x := range xs {
		by[slice[i]] = append(by[slice[i]], x)
	}
	var vals []float64
	for _, s := range by {
		if p := percentile(s, q); p.OK {
			vals = append(vals, p.Value)
		}
	}
	return pct{Value: median(vals), N: len(xs), OK: len(vals) > 0}
}

// nsToUS converts nanosecond samples to microseconds.
func nsToUS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// median of a small set of repeated measurements (set-up, reopen).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
