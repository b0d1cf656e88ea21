package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rankIndex is the nearest-rank index of the p-th percentile (0 < p <=
// 100) in n sorted samples.
func rankIndex(p float64, n int) int {
	// The epsilon keeps p*n/100 = 9990.000000000002 from rounding up.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns the nearest-rank p-th percentile of xs (0 if xs is
// empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankIndex(p, len(s))]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailCandidates are the percentiles a tail may be reported at, highest
// first.
var tailCandidates = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minTailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minTailBeyond = 10

// tailPercentile picks the highest candidate percentile that leaves at
// least minTailBeyond of n samples strictly beyond it. ok is false when
// n is too small for even the median to qualify.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n-(rankIndex(c, n)+1) >= minTailBeyond {
			return c, true
		}
	}
	return 0, false
}

// tail reports the value at tailPercentile(len(xs)), the percentile
// used, and how many samples lie beyond it. For too few samples it
// falls back to the maximum (p = 100, beyond = 0).
func tail(xs []float64) (v, p float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(xs)
	p, ok := tailPercentile(n)
	if !ok {
		return s[n-1], 100, 0
	}
	i := rankIndex(p, n)
	return s[i], p, n - (i + 1)
}

// interquartileRate is the throughput of operations taking xs
// milliseconds each at the mean time of their middle half: the
// operations between the first and third quartiles over their summed
// time. Like the median it leaves out a stall of the shared host, which
// would drag a mean over every operation, and unlike the median it
// still counts the time of half of the operations.
func interquartileRate(xs []float64) float64 {
	s := sortedCopy(xs)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	return perSecond(float64(len(mid)), sum(mid))
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// perSecond returns count per second of totalMS milliseconds, or 0
// when no time was measured.
func perSecond(count, totalMS float64) float64 { return ratio(count, totalMS/1e3) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
