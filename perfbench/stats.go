package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure is only quoted where at least this many requests were
// slower than it.
const minBeyond = 10

// tailLadder is the set of percentiles a tail figure is chosen from,
// highest first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// rank returns the 1-based nearest-rank index of percentile p over n
// samples: the smallest k with k/n >= p/100.
func rank(p float64, n int) int {
	// The epsilon keeps float error in p·n/100 from rounding an exact
	// rank up (99.9% of 10000 is rank 9990, not 9991).
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// nearestRank returns the nearest-rank percentile p of an ascending
// sample. An empty sample yields NaN.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPercentile returns the highest ladder percentile that has at least
// minBeyond samples above its rank in a sample of n, and false when even
// the median lacks that many.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// latencies collects per-request latencies in milliseconds, and counts
// the requests that failed.
type latencies struct {
	ms     []float64 // successful requests
	failed int
}

func (l *latencies) ok(d time.Duration) { l.ms = append(l.ms, float64(d)/1e6) }
func (l *latencies) fail()              { l.failed++ }

// summary is the median and tail of the successful requests, the tail's
// percentile, and the counts.
type summary struct {
	N      int // successful requests
	P50    float64
	TailP  float64 // percentile the tail figure is quoted at (0: unsupported)
	Tail   float64
	Failed int
}

func (l *latencies) summary() summary {
	s := l.sorted()
	out := summary{N: len(s), P50: nearestRank(s, 50), Tail: math.NaN(), Failed: l.failed}
	if p, ok := tailPercentile(len(s)); ok {
		out.TailP, out.Tail = p, nearestRank(s, p)
	}
	return out
}

func (l *latencies) sorted() []float64 {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	return s
}

// at returns the nearest-rank percentile p of the successful requests.
func (l *latencies) at(p float64) float64 { return nearestRank(l.sorted(), p) }

// allAt returns the nearest-rank percentile p over every request, a
// failed one counting as slower than any limit (+Inf).
func (l *latencies) allAt(p float64) float64 {
	n := len(l.ms) + l.failed
	if n == 0 {
		return math.NaN()
	}
	k := rank(p, n)
	if k > len(l.ms) {
		return math.Inf(1)
	}
	return l.sorted()[k-1]
}

// median of xs (nearest rank); NaN when empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 50)
}

// durMedian is median over durations, in seconds.
func durMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
