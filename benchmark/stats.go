package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a tail percentile before it is
// reported: fewer, and the "tail" is a handful of individual requests.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// latencySummary condenses one workload's per-operation latencies.
type latencySummary struct {
	N          int     `json:"n"`
	P25        float64 `json:"p25"`
	P50        float64 `json:"p50"`
	P75        float64 `json:"p75"`
	P90        float64 `json:"p90"`
	TailP      float64 `json:"tail_p"` // percentile reported as the tail; 100 means the maximum
	Tail       float64 `json:"tail"`
	TailBeyond int     `json:"tail_beyond"`
}

// summarize sorts ms in place and reads its quartiles and tail. The tail is
// the workload's declared percentile when at least minBeyond samples lie
// beyond it. Otherwise it is the sample with exactly minBeyond beyond it, but
// never below the median, so a run a few samples short of the declared
// percentile reads a slightly lower one instead of jumping to its slowest
// request; with minBeyond samples or fewer it is the maximum.
func summarize(ms []float64, tailP float64) latencySummary {
	sort.Float64s(ms)
	n := len(ms)
	s := latencySummary{N: n, P25: percentile(ms, 25), P50: percentile(ms, 50), P75: percentile(ms, 75), P90: percentile(ms, 90)}
	if n == 0 {
		return s
	}
	r := rank(n, tailP)
	if n-r < minBeyond {
		r = n
		if n > minBeyond {
			r = max(n-minBeyond, rank(n, 50))
		}
	}
	s.TailP, s.Tail, s.TailBeyond = 100*float64(r)/float64(n), ms[r-1], n-r
	return s
}

// median returns the median of v (the mean of the middle two for an even
// count) without reordering v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
