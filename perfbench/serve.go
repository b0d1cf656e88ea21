package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gristgo/internal/core"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/serve"
	"gristgo/internal/telemetry"
)

// serve_read: the query plane over a G5 mesh, driven in process
// through Server.Mux().ServeHTTP by an open loop.
const (
	serveLevel  = 5
	serveNLev   = 10
	serveTiles  = 48
	serveRetain = 4
	// serveCacheTiles holds every (epoch, tile, field) key of the
	// retained window, so the hot set always fits the tile cache.
	serveCacheTiles = 1024
	serveTemplates  = 8192
	serveStates     = 4 // distinct model states the epochs cycle through

	// checkEvery: every checkEvery-th answer is kept and compared with
	// the snapshot after its segment. engineEvery: in traced segments,
	// every engineEvery-th query is also timed directly on the engine.
	// Both are prime, so over a run every query template is sampled.
	checkEvery  = 61
	engineEvery = 17

	// p99LimitMs is the latency limit a ladder rung must meet: the Go
	// runtime's forced-preemption slice (10 ms). A query that waits
	// longer than a whole slice waited in a queue, not for a turn on a
	// CPU.
	p99LimitMs = 10.0
)

// Rates in queries per second, derived from the measured service
// capacity of this traffic mix (service_capacity_qps, see capacity), a
// median of 138k qps over five seeds on a 2-core Intel Xeon (GOMAXPROCS
// 2). The nominal rate is a fifth of it, where queueing adds little to
// a query's latency; the ladder runs from half of it to twice it. Each
// is rounded down to two significant figures.
var (
	readNominal = 27000.0
	readLadder  = geomLadder(69000, 270000)
)

// Schedule of a run (see measure): the nominal window runs in
// nominalSegments equal segments; a traced run gives it nominalShare of
// --seconds and climbs the ladder `climbs` times in the rest. Tail
// latencies and the highest rate meeting the SLO are medians over
// segments and climbs, so one stall of the shared host does not decide
// them.
const (
	nominalShare    = 0.5
	nominalSegments = 16
	climbs          = 5
)

// ladderStep is the ratio between neighbouring rungs.
const ladderStep = 1.05

// geomLadder returns the rungs from lo to at most hi, ladderStep apart,
// rounded to whole hundreds.
func geomLadder(lo, hi float64) []float64 {
	var out []float64
	for r := lo; r <= hi; r *= ladderStep {
		out = append(out, math.Round(r/100)*100)
	}
	return out
}

type queryKind int

const (
	qPoint queryKind = iota
	qRegion
	qRange
)

// query is one generated request and what is needed to check it.
type query struct {
	kind     queryKind
	path     string
	field    string
	lat, lon float64 // degrees, as sent
	box      [4]float64
	limit    int
	epoch    int // -1: latest
}

// pathRecorder is a handler that only records the request it gets.
type pathRecorder struct{ paths []string }

func (p *pathRecorder) ServeHTTP(_ http.ResponseWriter, r *http.Request) {
	p.paths = append(p.paths, r.URL.RequestURI())
}

// genQueries derives serveTemplates queries from the seed with the
// repository's own traffic generator at its default mix (serve.LoadConfig:
// point queries, 80% of them near 16 hotspots; 1% region queries over
// 10-degree boxes; 2% range queries; 30% of point and region queries
// pinned to one of the engine's epochs). The generator replays the mix
// against a handler; one worker makes the order deterministic, and the
// handler keeps the paths instead of answering.
func genQueries(seed int64, eng *serve.Engine) ([]query, error) {
	rec := &pathRecorder{}
	serve.RunLoadInProcess(rec, eng, serve.LoadConfig{Queries: serveTemplates, Workers: 1, Seed: seed})
	qs := make([]query, len(rec.paths))
	for i, p := range rec.paths {
		q, err := parseQuery(p)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return qs, nil
}

// parseQuery reads a query back from its path, with the coordinates as
// sent, so the check locates the same cell the server does.
func parseQuery(path string) (query, error) {
	u, err := url.Parse(path)
	if err != nil {
		return query{}, err
	}
	v := u.Query()
	q := query{path: path, field: v.Get("field"), epoch: -1}
	num := func(k string) float64 {
		x, e := strconv.ParseFloat(v.Get(k), 64)
		if e != nil && err == nil {
			err = fmt.Errorf("%s: %s: %w", path, k, e)
		}
		return x
	}
	if v.Has("epoch") {
		q.epoch = int(num("epoch"))
	}
	switch u.Path {
	case "/v1/point":
		q.kind, q.lat, q.lon = qPoint, num("lat"), num("lon")
	case "/v1/region":
		q.kind = qRegion
		q.box = [4]float64{num("min_lat"), num("max_lat"), num("min_lon"), num("max_lon")}
		q.limit = int(num("limit"))
	case "/v1/range":
		q.kind, q.lat, q.lon = qRange, num("lat"), num("lon")
	default:
		err = fmt.Errorf("unknown query %s", path)
	}
	return q, err
}

// genStates derives serveStates distinct model states from the seed.
func genStates(seed int64, m *mesh.Mesh) []*dycore.State {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]*dycore.State, serveStates)
	for i := range out {
		s := dycore.NewState(m, serveNLev)
		s.IsothermalRest(280 + 15*rng.Float64())
		s.AddSolidBodyWind(10 + 20*rng.Float64())
		s.AddThermalBubble((rng.Float64()-0.5)*1.5, rng.Float64()*2*math.Pi, 0.3, 1+3*rng.Float64())
		s.AddVortex((rng.Float64()-0.5)*1.2, rng.Float64()*2*math.Pi, 20+20*rng.Float64(), 0.08)
		for j := range s.W {
			s.W[j] = 0.01 * rng.NormFloat64()
		}
		out[i] = s
	}
	return out
}

// sink is a reusable in-process ResponseWriter. It keeps the body only
// when asked to.
type sink struct {
	hdr    http.Header
	status int
	keep   bool
	body   bytes.Buffer
}

func (s *sink) Header() http.Header { return s.hdr }
func (s *sink) WriteHeader(c int)   { s.status = c }
func (s *sink) Write(b []byte) (int, error) {
	if s.keep {
		s.body.Write(b)
	}
	return len(b), nil
}

func (s *sink) reset(keep bool) {
	clear(s.hdr)
	s.status = http.StatusOK
	s.keep = keep
	s.body.Reset()
}

// answer is a kept response body, checked after its segment.
type answer struct {
	q    *query
	body []byte
}

// servePlane is the set-up of serve_read plus the client.
type servePlane struct {
	mesh    *mesh.Mesh
	srv     *serve.Server
	handler http.Handler
	queries []query
	reqs    [][]*http.Request // per worker, per template: ServeMux writes into requests
	sinks   []*sink
	workers int
	// sent counts the requests of earlier windows. Request indices run
	// on across windows, so the answers every checkEvery-th request
	// keeps come from every template, not from the same few each
	// window.
	sent int64

	tr     *Tracer
	probe  *hostProbe
	traced atomic.Bool
	engUS  []float64 // direct engine call times (traced segments)
	engMu  sync.Mutex
	kept   []answer
	keptMu sync.Mutex
}

func newClient(p *servePlane, workers int) error {
	p.workers = workers
	p.reqs = make([][]*http.Request, workers)
	p.sinks = make([]*sink, workers)
	for w := range p.reqs {
		p.reqs[w] = make([]*http.Request, len(p.queries))
		for i, q := range p.queries {
			req, err := http.NewRequest(http.MethodGet, q.path, nil)
			if err != nil {
				return err
			}
			p.reqs[w][i] = req
		}
		p.sinks[w] = &sink{hdr: http.Header{}}
	}
	return nil
}

// issue sends request i from worker w. Answers are checked later; here
// only the status counts.
func (p *servePlane) issue(w int, i int64) bool {
	i += p.sent
	t := int(i % int64(len(p.queries)))
	keep := i%checkEvery == 0
	s := p.sinks[w]
	s.reset(keep)
	sample := p.traced.Load() && i%engineEvery == 0
	var t0 time.Time
	if sample {
		t0 = time.Now()
	}
	p.handler.ServeHTTP(s, p.reqs[w][t])
	if sample {
		p.tr.Record("serve.handler", -1, t0, time.Now())
	}
	if keep && s.status == http.StatusOK {
		p.keptMu.Lock()
		p.kept = append(p.kept, answer{&p.queries[t], append([]byte(nil), s.body.Bytes()...)})
		p.keptMu.Unlock()
	}
	if sample {
		p.timeEngine(&p.queries[t])
	}
	return s.status == http.StatusOK
}

// timeEngine repeats a query directly on the engine, below the HTTP
// handler, and records the call.
func (p *servePlane) timeEngine(q *query) {
	e := p.srv.Engine
	t0 := time.Now()
	switch q.kind {
	case qPoint:
		e.Point(q.epoch, q.field, q.lat, q.lon)
	case qRegion:
		e.Region(q.epoch, q.field, q.box[0], q.box[1], q.box[2], q.box[3], q.limit)
	case qRange:
		e.Range(q.field, q.lat, q.lon, 0, -1)
	}
	t1 := time.Now()
	p.tr.Record("serve.engine", -1, t0, t1)
	p.engMu.Lock()
	p.engUS = append(p.engUS, us(t1.Sub(t0)))
	p.engMu.Unlock()
}

// answerCheck counts the kept answers checked so far and the wrong
// ones, with a note on the first wrong answer.
type answerCheck struct {
	checked, wrong int
	byKind         [3]int // checked, by queryKind
	note           string
}

func (a *answerCheck) fail(msg string) {
	a.wrong++
	if a.note == "" {
		a.note = msg
	}
}

// checkAnswers compares every kept answer with the snapshot it names,
// then drops it: each value must equal Snapshot.Value at the cell the
// server located, and a point must be located where the tiler puts its
// coordinates.
func (p *servePlane) checkAnswers(a *answerCheck) {
	p.keptMu.Lock()
	kept := p.kept
	p.kept = nil
	p.keptMu.Unlock()
	tiler := p.srv.Engine.Tiler()
	store := p.srv.Engine.Store()
	value := func(epoch int, field string, cell int32) (float64, bool) {
		snap, ok := store.At(epoch)
		f, fok := serve.FieldID(field)
		if !ok || !fok || cell < 0 || int(cell) >= snap.NCells() {
			return 0, false
		}
		return snap.Value(f, cell), true
	}
	for _, k := range kept {
		a.checked++
		a.byKind[k.q.kind]++
		switch k.q.kind {
		case qPoint:
			var res serve.PointResult
			if err := json.Unmarshal(k.body, &res); err != nil {
				a.fail("point: " + err.Error())
				continue
			}
			want, ok := value(res.Epoch, res.Field, res.Cell)
			loc := tiler.Locate(k.q.lat*math.Pi/180, k.q.lon*math.Pi/180)
			if !ok || want != res.Value || res.Cell != loc || (k.q.epoch >= 0 && res.Epoch != k.q.epoch) {
				a.fail(fmt.Sprintf("point %s: got cell %d value %v epoch %d", k.q.path, res.Cell, res.Value, res.Epoch))
			}
		case qRegion:
			var res serve.RegionResult
			if err := json.Unmarshal(k.body, &res); err != nil {
				a.fail("region: " + err.Error())
				continue
			}
			for j, c := range res.Cells {
				if want, ok := value(res.Epoch, res.Field, c); !ok || want != res.Values[j] {
					a.fail(fmt.Sprintf("region %s: cell %d value %v", k.q.path, c, res.Values[j]))
					break
				}
			}
		case qRange:
			var res serve.RangeResult
			if err := json.Unmarshal(k.body, &res); err != nil {
				a.fail("range: " + err.Error())
				continue
			}
			if len(res.Series) == 0 {
				a.fail("range: empty series")
			}
			for _, pt := range res.Series {
				if want, ok := value(pt.Epoch, res.Field, res.Cell); !ok || want != pt.Value {
					a.fail(fmt.Sprintf("range %s: epoch %d value %v", k.q.path, pt.Epoch, pt.Value))
					break
				}
			}
		}
	}
}

// openLoop runs one open-loop window from the plane's query workers.
func (p *servePlane) openLoop(rate float64, dur time.Duration) rungResult {
	res := runOpenLoop(p.workers, rate, dur, p.issue)
	p.sent += int64(res.Attempted)
	return res
}

// warm sends every template once so the tile cache holds the hot set
// before timing.
func (p *servePlane) warm() {
	for i := range p.queries {
		p.issue(0, int64(i))
	}
	p.sent = int64(len(p.queries))
	p.checkAnswers(&answerCheck{})
}

// window is the measurement of the nominal-rate window, kept as
// per-segment figures so its memory does not grow with its length.
type window struct {
	segP50, segP75, segP90, segP99 []float64 // latency percentiles per segment
	segLate99, segService50        []float64
	segCapacity                    []float64 // see capacity
	segProbe                       []float64 // host probe after each segment
	tracedP50, plainP50            []float64 // segment p50 by tracing
	served                         int
	attempted, failed              int
	answers                        answerCheck
	sched                          float64
	stats                          serve.EngineStats
}

// nominal runs the nominal window in nominalSegments segments. A traced
// run traces every other segment, so the tracing overhead is measured
// within one run. The answers a segment kept are checked after it.
func (p *servePlane) nominal(rate, seconds float64) window {
	var w window
	before := p.srv.Engine.Stats()
	sched0 := readSched()
	dur := time.Duration(seconds / nominalSegments * float64(time.Second))
	for s := 0; s < nominalSegments; s++ {
		traced := p.tr != nil && s%2 == 1
		p.traced.Store(traced)
		first := p.sent
		res := p.openLoop(rate, dur)
		p50 := median(res.Lat)
		w.segP50 = append(w.segP50, p50)
		w.segP75 = append(w.segP75, percentile(res.Lat, 75))
		w.segP90 = append(w.segP90, percentile(res.Lat, 90))
		w.segP99 = append(w.segP99, percentile(res.Lat, 99))
		w.segLate99 = append(w.segLate99, percentile(res.Late, 99))
		w.segService50 = append(w.segService50, median(res.Service))
		if traced {
			w.tracedP50 = append(w.tracedP50, p50)
		} else {
			w.plainP50 = append(w.plainP50, p50)
		}
		w.segCapacity = append(w.segCapacity, p.capacity(first, res.Service))
		w.segProbe = append(w.segProbe, p.probe.measure())
		w.served += len(res.Service)
		w.attempted += res.Attempted
		w.failed += res.Failed
		p.checkAnswers(&w.answers)
	}
	p.traced.Store(false)
	w.sched = schedWaitP99US(sched0, readSched())
	after := p.srv.Engine.Stats()
	w.stats = serve.EngineStats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Builds:    after.Builds - before.Builds,
		Coalesced: after.Coalesced - before.Coalesced,
	}
	return w
}

// capacity is the service capacity of a window whose request j was
// request first+j of the run: query goroutines over the mean service
// time of the mix, taking each query kind at its median service time
// weighted by its share of the window. Medians keep the figure steady
// when a few requests stall on a shared host; the weights keep a
// change to the rarer region and range paths in it.
func (p *servePlane) capacity(first int64, service []float64) float64 {
	var byKind [3][]float64
	for j, s := range service {
		k := p.queries[(first+int64(j))%int64(len(p.queries))].kind
		byKind[k] = append(byKind[k], s)
	}
	var mean float64
	for _, xs := range byKind {
		mean += median(xs) * float64(len(xs)) / float64(len(service))
	}
	return perSecond(float64(p.workers), mean)
}

// climb runs the ladder from rung `from` until a rung misses the SLO,
// and returns the rungs run. Ladder answers are not checked.
func (p *servePlane) climb(rates []float64, from int, rung time.Duration) []rungResult {
	var out []rungResult
	for _, rate := range rates[from:] {
		res := p.openLoop(rate, rung)
		p.checkAnswers(&answerCheck{})
		out = append(out, res)
		if !res.meetsSLO(p99LimitMs) {
			break
		}
	}
	return out
}

// report fills the query-plane metrics.
func (p *servePlane) report(c runConfig, r *report, w window, ladder [][]rungResult) {
	r.ops(w.attempted, w.failed)
	// The gated p50 and tail are medians of the segments' percentiles.
	// The tail is p75: on a shared 2-core host p90 and p99 moved by
	// more than the bound between runs of the same code. Both are
	// reported. The gated figures are at the reference host speed, each
	// segment's scaled by the host probe after it; the report's are
	// wall times.
	r.e2e("op_p50_ms", median(scaleAll(w.segP50, w.segProbe)))
	r.e2e("op_tail_ms", median(scaleAll(w.segP75, w.segProbe)))
	p50, p75 := median(w.segP50), median(w.segP75)
	r.Detail["query_p50_ms"] = p50
	r.Detail["query_p75_ms"] = p75
	r.Detail["query_p90_ms"] = median(w.segP90)
	r.Detail["query_p99_ms"] = median(w.segP99)
	r.Detail["query_samples"] = float64(w.served)
	r.Detail["nominal_qps"] = readNominal
	r.Detail["p99_limit_ms"] = p99LimitMs
	var best []float64
	for _, rungs := range ladder {
		for _, rg := range rungs {
			r.ops(rg.Attempted, rg.Failed)
			key := fmt.Sprintf("rung_%.0f", rg.Rate)
			r.Detail[key+"_runs"]++
			if rg.meetsSLO(p99LimitMs) {
				r.Detail[key+"_met"]++
			}
		}
		best = append(best, maxRateMeetingSLO(rungs, p99LimitMs))
	}
	if ladder != nil {
		r.Detail["max_qps_slo"] = median(best)
		r.Detail["climbs"] = float64(len(best))
	}
	// The gated rate is the service capacity at the nominal rate, the
	// median of the segments', at the reference host speed.
	scaledCap := make([]float64, len(w.segCapacity))
	for i, c := range w.segCapacity {
		scaledCap[i] = c / atRef(1, w.segProbe[i])
	}
	r.e2e("ops_per_s", median(scaledCap))
	r.Detail["service_capacity_qps"] = median(w.segCapacity)
	r.ops(w.answers.checked, w.answers.wrong)
	r.Detail["checked_points"] = float64(w.answers.byKind[qPoint])
	r.Detail["checked_regions"] = float64(w.answers.byKind[qRegion])
	r.Detail["checked_ranges"] = float64(w.answers.byKind[qRange])
	r.check(r.Workload+".answers_match_snapshot", w.answers.wrong == 0 && w.answers.checked > 0,
		fmt.Sprintf("%d of %d sampled answers wrong %s", w.answers.wrong, w.answers.checked, w.answers.note))
	if c.Tr == nil {
		return
	}
	r.layer("serve.handler_us", median(w.segService50)*1e3)
	r.layer("serve.engine_us", median(p.engUS))
	r.layer("serve.sched_wait_us", w.sched)
	r.layer("gen.late_ms", median(w.segLate99))
	r.layer("serve.hit_rate", w.stats.HitRate())
	r.layer("serve.coalesce_ratio", w.stats.CoalesceRatio())
	r.layer("serve.tile_builds", float64(w.stats.Builds))
	r.layer("trace.overhead", ratio(median(w.tracedP50), median(w.plainP50)))
}

// measure runs the nominal window for all of --seconds. A traced run
// spends nominalShare of it at the nominal rate and then, untraced,
// climbs the ladder `climbs` times for the report's max_qps_slo: near
// saturation a shared host moves that knee by more than any bound, so
// the gated untraced runs stay at the nominal rate. mem_peak_mb is
// taken when the nominal window ends.
func (p *servePlane) measure(c runConfig, r *report) (window, [][]rungResult) {
	if c.Tr == nil {
		w := p.nominal(readNominal, c.Seconds)
		r.memPeak(c.Probe)
		return w, nil
	}
	w := p.nominal(readNominal, c.Seconds*nominalShare)
	r.memPeak(c.Probe)
	// The first climb starts at the bottom; later ones start
	// climbStart rungs below where the previous one ended, so a climb
	// usually runs about climbStart+1 rungs.
	const climbStart = 4
	rung := time.Duration(c.Seconds * (1 - nominalShare) / (climbs * (climbStart + 2)) * float64(time.Second))
	var out [][]rungResult
	from := 0
	for i := 0; i < climbs; i++ {
		rungs := p.climb(readLadder, from, rung)
		out = append(out, rungs)
		from = max(0, from+len(rungs)-1-climbStart)
	}
	return w, out
}

func runServeRead(c runConfig, r *report) error {
	p, pr, err := buildServe(c, r)
	if err != nil {
		return err
	}
	if p.queries, err = genQueries(c.Seed, p.srv.Engine); err != nil {
		return err
	}
	if err := newClient(p, runtime.NumCPU()); err != nil {
		return err
	}
	p.warm()
	w, ladder := p.measure(c, r)
	p.report(c, r, w, ladder)
	// The ingest layers are measured on the set-up ingests.
	pr.report(c, r)
	return nil
}

// producer writes precomputed epochs as two-rank checkpoint shards,
// commits each and polls it into the server, the way a running model
// feeds the query plane.
type producer struct {
	store   *core.ShardStore
	poller  *serve.ShardPoller
	srv     *serve.Server
	states  []*dycore.State
	sums    []uint64 // expected snapshot checksum per state
	parts   int
	next    int
	tr      *Tracer
	shardMB float64 // bytes of one epoch's shards, MB

	writeMS, commitMS, pollMS            []float64
	epochs, badSum, pollErr, quarantined int
}

// epochFiles lists the checkpoint files of one epoch: shard and
// manifest names carry the epoch as a six-digit number.
func epochFiles(dir string, epoch int) []string {
	tag := fmt.Sprintf("%06d", epoch)
	names, _ := filepath.Glob(filepath.Join(dir, "*"))
	var out []string
	for _, n := range names {
		if strings.Contains(filepath.Base(n), tag) {
			out = append(out, n)
		}
	}
	return out
}

// ingest writes, commits and publishes one epoch, then checks it.
func (pr *producer) ingest() {
	e := pr.next
	pr.next++
	k := e % len(pr.states)
	step := 10 * e
	root := pr.tr.Begin("ingest.epoch", -1, time.Now())
	for rank := 0; rank < pr.parts; rank++ {
		t0 := time.Now()
		err := pr.store.WriteShard(e, rank, step, pr.states[k])
		t1 := time.Now()
		pr.tr.Record("ckpt.write_shard", root, t0, t1)
		pr.writeMS = append(pr.writeMS, ms(t1.Sub(t0)))
		if err != nil {
			pr.pollErr++
		}
	}
	t0 := time.Now()
	if err := pr.store.Commit(e, step); err != nil {
		pr.pollErr++
	}
	committed := time.Now()
	pr.tr.Record("ckpt.commit", root, t0, committed)
	pr.commitMS = append(pr.commitMS, ms(committed.Sub(t0)))
	_, err := pr.poller.Poll()
	polled := time.Now()
	pr.tr.Record("serve.poll", root, committed, polled)
	pr.tr.End(root, polled)
	pr.pollMS = append(pr.pollMS, ms(polled.Sub(committed)))
	if err != nil {
		pr.pollErr++
	}
	pr.srv.SetStaleness(pr.poller.Staleness())
	pr.quarantined += len(pr.poller.Quarantined())

	snap, ok := pr.srv.Engine.Store().At(e)
	if !ok || snap.Checksum() != pr.sums[k] {
		pr.badSum++
	}
	pr.epochs++
}

// buildServe sets up the query plane and its producer, and publishes
// serveRetain epochs through the producer's ingest path.
func buildServe(c runConfig, r *report) (*servePlane, *producer, error) {
	var (
		p                     *servePlane
		pr                    *producer
		meshMS, srvMS, planMS []float64
		setupN                int
	)
	setup, setupWall, err := repeatSetup(c.Probe, func() { p, pr = nil, nil }, func() error {
		setupN++
		p = &servePlane{tr: c.Tr, probe: c.Probe}
		stopwatch(&meshMS, func() { p.mesh = mesh.New(serveLevel) })
		var pl *core.DistPlan
		stopwatch(&planMS, func() { pl = core.NewDistPlan(p.mesh, serveNLev, 2, c.Seed) })
		store, err := core.NewShardStore(filepath.Join(c.Dir, fmt.Sprintf("shards%d", setupN)), pl)
		if err != nil {
			return err
		}
		stopwatch(&srvMS, func() {
			p.srv = serve.NewServer(p.mesh, serve.Config{Tiles: serveTiles, CacheTiles: serveCacheTiles, Retain: serveRetain}, telemetry.NewRegistry())
		})
		p.handler = p.srv.Mux()
		pr = &producer{store: store, srv: p.srv, parts: 2, tr: c.Tr,
			poller: serve.NewShardPoller(store, p.srv.Engine.Store())}
		pr.states = genStates(c.Seed, p.mesh)
		for _, s := range pr.states {
			pr.sums = append(pr.sums, serve.SnapshotFromState(0, 0, s).Checksum())
		}
		for i := 0; i < serveRetain; i++ {
			pr.ingest()
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	r.e2e("setup_s", setup)
	r.Detail["setup_wall_s"] = setupWall
	r.layer("mesh.build_ms", median(meshMS))
	r.layer("core.plan_ms", median(planMS))
	r.layer("serve.server_ms", median(srvMS))
	var epochBytes int64
	for _, f := range epochFiles(pr.store.Dir(), pr.next-1) {
		if fi, err := os.Stat(f); err == nil {
			epochBytes += fi.Size()
		}
	}
	pr.shardMB = float64(epochBytes) / 1e6
	return p, pr, nil
}

// report checks the ingested epochs and fills the ingest metrics.
func (pr *producer) report(c runConfig, r *report) {
	r.ops(pr.epochs, pr.badSum+pr.pollErr)
	r.check(r.Workload+".checksums", pr.badSum == 0, fmt.Sprintf("%d of %d epochs unpublished or with a wrong checksum", pr.badSum, pr.epochs))
	r.check(r.Workload+".no_quarantine", pr.quarantined == 0 && pr.pollErr == 0,
		fmt.Sprintf("%d quarantined epoch-polls, %d write/commit/poll errors", pr.quarantined, pr.pollErr))
	r.Detail["ingest_p50_ms"] = median(pr.pollMS)
	r.Detail["epochs_ingested"] = float64(pr.epochs)
	if c.Tr == nil {
		return
	}
	r.layer("ckpt.write_ms", median(pr.writeMS))
	r.layer("ckpt.commit_ms", median(pr.commitMS))
	r.layer("ckpt.write_mb_s", ratio(pr.shardMB*float64(len(pr.writeMS))/float64(pr.parts), sum(pr.writeMS)/1e3))
	r.layer("serve.poll_ms", median(pr.pollMS))
	r.layer("serve.quarantined", float64(pr.quarantined))
}
