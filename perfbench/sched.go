package main

import (
	"math"
	"runtime/metrics"
)

// schedSample is the Go runtime's histogram of how long goroutines sat
// runnable before they ran. Two samples bracket a window.
type schedSample struct {
	counts  []uint64
	buckets []float64
}

const schedMetric = "/sched/latencies:seconds"

func readSched() schedSample {
	s := []metrics.Sample{{Name: schedMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return schedSample{}
	}
	h := s[0].Value.Float64Histogram()
	return schedSample{counts: append([]uint64(nil), h.Counts...), buckets: h.Buckets}
}

// schedWaitP99US returns the 99th percentile scheduling wait in µs of
// the goroutine wake-ups between two samples (0 if none were recorded),
// at the upper edge of its histogram bucket.
func schedWaitP99US(before, after schedSample) float64 {
	if len(after.counts) == 0 || len(before.counts) != len(after.counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.counts))
	for i := range delta {
		delta[i] = after.counts[i] - before.counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var acc uint64
	for i, n := range delta {
		acc += n
		if acc >= want {
			hi := after.buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}
