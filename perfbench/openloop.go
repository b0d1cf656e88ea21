package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// An open loop sends request i at start + i/rate whatever the state of
// earlier requests, the arrival pattern of independent users. Latency
// is taken from when a request was due, not from when a worker got to
// it, so a stall is charged to every request it delays.

// issueFunc sends request i from worker w and reports whether it
// succeeded.
type issueFunc func(w int, i int64) bool

// rungResult is one open-loop window at a fixed rate.
type rungResult struct {
	Rate      float64
	Seconds   float64
	Attempted int
	Failed    int
	Lat       []float64 // ms from due to completion, by request index
	Late      []float64 // ms from due to send, by request index
	Service   []float64 // ms from send to completion, by request index
}

// spinWindow is how close to its due time a worker stops sleeping and
// yields instead, because timer wake-ups overshoot by tens of µs.
const spinWindow = 200 * time.Microsecond

// runOpenLoop sends requests at rate for dur from `workers` goroutines
// and returns when every sent request has completed.
func runOpenLoop(workers int, rate float64, dur time.Duration, issue issueFunc) rungResult {
	n := int64(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	res := rungResult{
		Rate:    rate,
		Lat:     make([]float64, n),
		Late:    make([]float64, n),
		Service: make([]float64, n),
	}
	ok := make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	interval := float64(time.Second) / rate
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				for {
					d := time.Until(due)
					if d <= 0 {
						break
					}
					if d > spinWindow {
						time.Sleep(d - spinWindow)
					} else {
						runtime.Gosched()
					}
				}
				sent := time.Now()
				ok[i] = issue(w, i)
				done := time.Now()
				res.Lat[i] = ms(done.Sub(due))
				res.Late[i] = ms(sent.Sub(due))
				res.Service[i] = ms(done.Sub(sent))
			}
		}(w)
	}
	wg.Wait()
	res.Seconds = time.Since(start).Seconds()
	res.Attempted = int(n)
	for _, o := range ok {
		if !o {
			res.Failed++
		}
	}
	return res
}

// backlogGrowing reports whether the generator fell progressively
// further behind over a window: the median lateness of the last quarter
// of requests exceeds that of the first quarter by more than slackMs.
// A system keeping up has the same lateness throughout; one that cannot
// keep up falls behind linearly with time.
func backlogGrowing(late []float64, slackMs float64) bool {
	q := len(late) / 4
	if q == 0 {
		return false
	}
	return median(late[len(late)-q:])-median(late[:q]) > slackMs
}

// meetsSLO reports whether a rung had no failures, a p99 latency within
// limitMs, and no growing backlog (slack: half the limit).
func (r rungResult) meetsSLO(limitMs float64) bool {
	return r.Failed == 0 && percentile(r.Lat, 99) <= limitMs && !backlogGrowing(r.Late, limitMs/2)
}

// maxRateMeetingSLO returns the highest rate of an ascending ladder
// below which every rung met the SLO (0 if the lowest rung failed).
func maxRateMeetingSLO(rungs []rungResult, limitMs float64) float64 {
	rs := append([]rungResult(nil), rungs...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Rate < rs[j].Rate })
	best := 0.0
	for _, r := range rs {
		if !r.meetsSLO(limitMs) {
			break
		}
		best = r.Rate
	}
	return best
}
