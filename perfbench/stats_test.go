package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{100, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40..1, unsorted
	}
	v, p, beyond := tail(xs)
	if p != 75 || v != 30 || beyond != 10 {
		t.Errorf("tail = %v at p%v with %d beyond; want 30 at p75 with 10", v, p, beyond)
	}
	if v, p, beyond := tail([]float64{3, 1, 2}); v != 3 || p != 100 || beyond != 0 {
		t.Errorf("tail of 3 samples = %v at p%v (%d beyond); want the maximum", v, p, beyond)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 50); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	for _, tc := range []struct {
		kids [][2]int64
		want int64
	}{
		{nil, 100},
		{[][2]int64{{10, 20}, {30, 40}}, 80},
		{[][2]int64{{10, 20}, {15, 30}}, 80},           // overlapping children count once
		{[][2]int64{{-5, 10}, {90, 120}}, 80},          // clipped to the parent
		{[][2]int64{{10, 20}, {10, 20}, {50, 50}}, 90}, // duplicates and empty spans
		{[][2]int64{{0, 100}, {20, 30}}, 0},            // fully covered
		{[][2]int64{{60, 70}, {10, 20}, {15, 65}}, 40}, // unsorted chain
		{[][2]int64{{200, 300}}, 100},                  // outside the parent
	} {
		if got := selfTime(0, 100, tc.kids); got != tc.want {
			t.Errorf("selfTime(%v) = %d, want %d", tc.kids, got, tc.want)
		}
	}
}

func TestTracerSelfTimeOfRecordedSpans(t *testing.T) {
	tr := NewTracer("test")
	t0 := tr.origin
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.Begin("step", -1, at(0))
	tr.Record("a", root, at(1), at(4))
	tr.Record("b", root, at(5), at(9))
	tr.End(root, at(10))
	spans := tr.Spans()
	kids := childrenOf(spans)
	if got := selfTime(spans[root].Start, spans[root].End, kids[root]); got != int64(3*time.Millisecond) {
		t.Errorf("self time %v, want 3ms", time.Duration(got))
	}
	var untraced *Tracer
	if id := untraced.Begin("x", -1, t0); id != -1 {
		t.Errorf("untraced Begin = %d, want -1", id)
	}
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	// One worker, 1 request per ms; request 0 stalls for 20 ms, so
	// requests 1.. are sent late and their latency counts the wait.
	res := runOpenLoop(1, 1000, 40*time.Millisecond, func(w int, i int64) bool {
		if i == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		return i != 7
	})
	if res.Attempted != 40 || res.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want 40 and 1", res.Attempted, res.Failed)
	}
	if res.Late[1] < 15 || res.Lat[1] < res.Late[1] {
		t.Errorf("request 1: late %.2f ms, latency %.2f ms; want >= 15 ms late and latency >= lateness", res.Late[1], res.Lat[1])
	}
	if res.Service[1] > res.Lat[1] {
		t.Errorf("service %.2f ms exceeds latency from due %.2f ms", res.Service[1], res.Lat[1])
	}
	if res.Lat[0] < 20 {
		t.Errorf("request 0 latency %.2f ms, want >= 20", res.Lat[0])
	}
}

func TestBacklogAndMaxRateRule(t *testing.T) {
	steady := make([]float64, 400)
	growing := make([]float64, 400)
	for i := range steady {
		steady[i] = 0.1 + 0.05*float64(i%3)
		growing[i] = 0.1 + 0.05*float64(i)
	}
	if backlogGrowing(steady, 1) {
		t.Error("steady lateness flagged as a growing backlog")
	}
	if !backlogGrowing(growing, 1) {
		t.Error("linearly growing lateness not flagged")
	}
	rung := func(rate float64, failed int, latMs float64, late []float64) rungResult {
		lat := make([]float64, len(late))
		for i := range lat {
			lat[i] = latMs
		}
		return rungResult{Rate: rate, Failed: failed, Lat: lat, Late: late}
	}
	ladder := []rungResult{
		rung(300, 0, 0.5, steady), // out of order on purpose
		rung(100, 0, 0.5, steady),
		rung(200, 0, 0.5, steady),
		rung(400, 0, 0.5, growing), // backlog grows
		rung(500, 0, 0.5, steady),  // above a failed rung: does not count
	}
	if got := maxRateMeetingSLO(ladder, 2); got != 300 {
		t.Errorf("max rate = %v, want 300", got)
	}
	ladder[1] = rung(100, 1, 0.5, steady) // a failure fails the rung
	if got := maxRateMeetingSLO(ladder, 2); got != 0 {
		t.Errorf("max rate with a failed lowest rung = %v, want 0", got)
	}
	ladder[1] = rung(100, 0, 0.5, steady)
	ladder[2] = rung(200, 0, 3, steady) // p99 over the limit
	if got := maxRateMeetingSLO(ladder, 2); got != 100 {
		t.Errorf("max rate with a slow rung = %v, want 100", got)
	}
}

func TestMetricVocabularyMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	cmp := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, benchmark has [%s]", kind, m.Name, m.Unit, u)
			}
		}
	}
	cmp("end_to_end", b.EndToEnd, e2eUnits)
	cmp("per_layer", b.PerLayer, layerUnits)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
}

func TestParseQueryReadsWhatWasSent(t *testing.T) {
	q, err := parseQuery("/v1/point?lat=12.3456&lon=-7.5000&field=ps&epoch=3")
	if err != nil || q.kind != qPoint || q.lat != 12.3456 || q.lon != -7.5 || q.field != "ps" || q.epoch != 3 {
		t.Errorf("point: %+v, %v", q, err)
	}
	q, err = parseQuery("/v1/region?min_lat=1.50&max_lat=11.50&min_lon=-20.00&max_lon=-10.00&field=t&limit=256")
	if err != nil || q.kind != qRegion || q.box != [4]float64{1.5, 11.5, -20, -10} || q.limit != 256 || q.epoch != -1 {
		t.Errorf("region: %+v, %v", q, err)
	}
	q, err = parseQuery("/v1/range?lat=1&lon=2&field=u")
	if err != nil || q.kind != qRange || q.lat != 1 || q.lon != 2 {
		t.Errorf("range: %+v, %v", q, err)
	}
	if _, err := parseQuery("/v1/point?lat=x&lon=2&field=u"); err == nil {
		t.Error("a malformed coordinate parsed")
	}
	if _, err := parseQuery("/v1/other?lat=1"); err == nil {
		t.Error("an unknown query kind parsed")
	}
}

func TestCapacityWeighsKindMedians(t *testing.T) {
	// Templates alternate point and region; the window starts at
	// request 1, so its requests are region, point, region, point.
	p := &servePlane{workers: 2, queries: []query{{kind: qPoint}, {kind: qRegion}}}
	service := []float64{10, 1, 30, 3} // ms
	// Nearest-rank medians: region 10 ms, point 1 ms; half each, so
	// the mean is 5.5 ms.
	if got, want := p.capacity(1, service), 2/0.0055; math.Abs(got-want) > 1e-9 {
		t.Errorf("capacity = %v, want %v", got, want)
	}
	// A stalled point query moves its kind's median by one rank only:
	// region 10 ms, point 3 ms, so the mean is 6.5 ms.
	service = []float64{10, 1, 30, 3, 10, 500}
	if got, want := p.capacity(1, service), 2/0.0065; math.Abs(got-want) > 1e-9 {
		t.Errorf("capacity with a stall = %v, want %v", got, want)
	}
}

func TestInterquartileRateIgnoresStalls(t *testing.T) {
	xs := []float64{100, 100, 100, 100, 100, 100, 100, 100}
	if got := interquartileRate(xs); got != 10 {
		t.Errorf("steady run: %v ops/s, want 10", got)
	}
	xs[3] = 5000 // a 5 s stall
	xs[6] = 1    // and an operation far faster than the rest
	if got := interquartileRate(xs); got != 10 {
		t.Errorf("a stall and a fast outlier moved the rate to %v ops/s", got)
	}
	// Four operations: the middle half is the 200 and 300 ms ones.
	if got := interquartileRate([]float64{1000, 200, 300, 50}); got != 4 {
		t.Errorf("four operations: %v ops/s, want 4", got)
	}
	if got := interquartileRate(nil); got != 0 {
		t.Errorf("no operations: %v, want 0", got)
	}
}

func TestAtRefScalesByHostSpeed(t *testing.T) {
	// A host running at half the reference speed takes twice as long
	// for the probe and for the operation: the scaled time is the same.
	if got := atRef(200, 2*probeRefMS); got != 100 {
		t.Fatalf("atRef(200, 2*ref) = %v, want 100", got)
	}
	got := scaleAll([]float64{10, 30}, []float64{probeRefMS, probeRefMS / 2})
	if got[0] != 10 || got[1] != 60 {
		t.Fatalf("scaleAll = %v, want [10 60]", got)
	}
}

func TestHostProbeMeasures(t *testing.T) {
	hp, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer hp.close()
	for i := 0; i < 3; i++ {
		if d := hp.measure(); d <= 0 {
			t.Fatalf("probe took %v ms", d)
		}
	}
	if len(hp.times) != 3 {
		t.Fatalf("recorded %d probe times, want 3", len(hp.times))
	}
	// The goroutines' parts cover the sweep buffer, which holds
	// i%97/1000 at index i, and each has a core buffer of its own.
	var got, want float64
	for k := range hp.sweep {
		got += sweepSum(hp.sweep[k], 1)
		if len(hp.core[k]) != probeCoreBytes/8 {
			t.Fatalf("core buffer %d has %d elements", k, len(hp.core[k]))
		}
	}
	for i := 0; i < probeSweepBytes/8; i++ {
		want += float64(i%97) * 1e-3
	}
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("parts sum to %v, sweep buffer to %v", got, want)
	}
}
