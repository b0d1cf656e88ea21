package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"gristgo/internal/comm"
	"gristgo/internal/core"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/precision"
)

// dyn_dist: the SPMD dynamics path, G5 L10 in double precision on two
// ranks, through core's plain entry point. Each call integrates
// distSteps steps from the same seeded initial state, so every call
// does the same work and is checked against one serial reference. The
// operation the end-to-end metrics time is one step.
//
// A call also builds its plan and its rank engines before it steps,
// and gathers the ranks' states after. The initial-condition callback
// runs on each rank once its engine exists, so the benchmark stamps it
// and times the steps from the last rank's stamp to the call's return:
// plan and engine construction stay out of the per-step figures and
// are reported as the call's prologue. The plan's cost is set-up
// (core.plan_ms, in setup_s).
const (
	distLevel = 5
	distNLev  = 10
	distParts = 2
	distSteps = 3
	distDt    = 120.0
	// distPlanSeed is the decomposition seed core's plain entry uses;
	// set-up builds the same plan. In double precision any
	// decomposition reproduces the serial run bitwise.
	distPlanSeed = 12345
)

// distInit returns the seeded initial condition: isothermal rest with a
// solid-body wind and a warm bubble at a seed-derived location.
func distInit(seed int64) func(*dycore.State) {
	rng := rand.New(rand.NewSource(seed))
	lat := (rng.Float64() - 0.5) * 1.5
	lon := rng.Float64() * 2 * math.Pi
	amp := 2 + 2*rng.Float64()
	u0 := 15 + 10*rng.Float64()
	return func(s *dycore.State) {
		s.IsothermalRest(290)
		s.AddThermalBubble(lat, lon, 0.35, amp)
		s.AddSolidBodyWind(u0)
	}
}

// prognostic lists the fields a distributed run gathers.
func prognostic(s *dycore.State) [][]float64 {
	return [][]float64{s.DryMass, s.ThetaM, s.W, s.Phi, s.U}
}

// bitwiseEqual reports whether two states agree bit for bit on every
// prognostic field.
func bitwiseEqual(a, b *dycore.State) bool {
	fa, fb := prognostic(a), prognostic(b)
	for i := range fa {
		if len(fa[i]) != len(fb[i]) {
			return false
		}
		for j := range fa[i] {
			if math.Float64bits(fa[i][j]) != math.Float64bits(fb[i][j]) {
				return false
			}
		}
	}
	return true
}

// distLayerStats are the per-layer measurements of one traced call.
type distLayerStats struct {
	stepMS   []float64          // per rank per Engine.Step, hooks included
	startUS  []float64          // per halo Start
	finishUS []float64          // per halo Finish
	hookMS   float64            // summed Start+Finish time
	rankWall []time.Duration    // per rank, its step loop
	ex       comm.ExchangeStats // summed over ranks
}

// tracedDistRun integrates like core.RunDistributedDynamics but drives
// the layers itself through their public API, timing each call: the
// exchanger over the plan's Layout with the state fields registered as
// core does (phi sensitive), the Start/Finish hooks, and every
// Engine.Step. init is called like the plain entry's, on each rank once
// its engine exists.
func tracedDistRun(tr *Tracer, m *mesh.Mesh, pl *core.DistPlan, init func(*dycore.State), steps int) (*dycore.State, distLayerStats) {
	var st distLayerStats
	call := tr.Begin("dist.call", -1, time.Now())
	states := make([]*dycore.State, distParts)
	st.rankWall = make([]time.Duration, distParts)
	var mu sync.Mutex
	comm.Run(distParts, func(r *comm.Rank) {
		p := r.ID()
		rank := tr.Begin(fmt.Sprintf("rank%d", p), call, time.Now())
		eng := dycore.New(m, distNLev, precision.DP)
		init(eng.State())
		s := eng.State()
		ex := comm.NewExchangerWithLayout(r, precision.DP, pl.Layout(p))
		ni := distNLev + 1
		ex.RegisterSlice("dry_mass", s.DryMass, distNLev, 0, false)
		ex.RegisterSlice("theta_m", s.ThetaM, distNLev, 0, false)
		ex.RegisterSlice("w", s.W, ni, 0, false)
		ex.RegisterSlice("phi", s.Phi, ni, 0, true)
		ex.RegisterSlice("u", s.U, distNLev, 1, false)

		var stepMS, startUS, finishUS []float64
		var hook time.Duration
		stepSpan := -1
		o := pl.OwnedSets(p)
		o.Start = func() {
			a := time.Now()
			ex.Start()
			b := time.Now()
			tr.Record("comm.start", stepSpan, a, b)
			startUS = append(startUS, us(b.Sub(a)))
			hook += b.Sub(a)
		}
		o.Finish = func() {
			a := time.Now()
			ex.Finish()
			b := time.Now()
			tr.Record("comm.finish", stepSpan, a, b)
			finishUS = append(finishUS, us(b.Sub(a)))
			hook += b.Sub(a)
		}
		eng.SetOwned(o)
		// The rank's wall is its step loop, as core measures it.
		loopStart := time.Now()
		for i := 0; i < steps; i++ {
			a := time.Now()
			stepSpan = tr.Begin("dycore.step", rank, a)
			eng.Step(distDt)
			b := time.Now()
			tr.End(stepSpan, b)
			stepMS = append(stepMS, ms(b.Sub(a)))
		}
		exs := ex.DrainStats()
		end := time.Now()
		tr.End(rank, end)

		mu.Lock()
		states[p] = s
		st.rankWall[p] = end.Sub(loopStart)
		st.stepMS = append(st.stepMS, stepMS...)
		st.startUS = append(st.startUS, startUS...)
		st.finishUS = append(st.finishUS, finishUS...)
		st.hookMS += ms(hook)
		st.ex.Rounds += exs.Rounds
		st.ex.BytesSent += exs.BytesSent
		st.ex.Wait += exs.Wait
		mu.Unlock()
	})
	tr.End(call, time.Now())

	// Assemble the owned regions, as core's gather does.
	final := dycore.NewState(m, distNLev)
	ni := distNLev + 1
	for p, s := range states {
		for _, c := range pl.TendCells[p] {
			b, ib := int(c)*distNLev, int(c)*ni
			copy(final.DryMass[b:b+distNLev], s.DryMass[b:b+distNLev])
			copy(final.ThetaM[b:b+distNLev], s.ThetaM[b:b+distNLev])
			copy(final.W[ib:ib+ni], s.W[ib:ib+ni])
			copy(final.Phi[ib:ib+ni], s.Phi[ib:ib+ni])
		}
		for _, e := range pl.UEdges[p] {
			b := int(e) * distNLev
			copy(final.U[b:b+distNLev], s.U[b:b+distNLev])
		}
	}
	return final, st
}

// initStamp wraps an initial-condition callback and records when the
// last of its calls returned: the moment every rank is ready to step.
type initStamp struct {
	mu   sync.Mutex
	last time.Time
}

func (st *initStamp) wrap(init func(*dycore.State)) func(*dycore.State) {
	return func(s *dycore.State) {
		init(s)
		t := time.Now()
		st.mu.Lock()
		if t.After(st.last) {
			st.last = t
		}
		st.mu.Unlock()
	}
}

func runDynDist(c runConfig, r *report) error {
	init := distInit(c.Seed)
	var (
		m              *mesh.Mesh
		pl             *core.DistPlan
		meshMS, planMS []float64
	)
	setup, setupWall, err := repeatSetup(c.Probe, func() { m, pl = nil, nil }, func() error {
		stopwatch(&meshMS, func() { m = mesh.New(distLevel).ReorderBFS() })
		stopwatch(&planMS, func() { pl = core.NewDistPlan(m, distNLev, distParts, distPlanSeed) })
		return nil
	})
	if err != nil {
		return err
	}
	r.e2e("setup_s", setup)
	r.Detail["setup_wall_s"] = setupWall
	r.layer("mesh.build_ms", median(meshMS))
	r.layer("core.plan_ms", median(planMS))

	var (
		first                       *dycore.State // every later call must equal it
		stepMS, callMS, prologueMS  []float64     // plain calls
		probes                      []float64     // host probe after each plain call
		tracedStepMS                []float64
		layers                      []distLayerStats
		calls, differ, tracedDiffer int
	)
	sched0 := readSched()
	deadline := time.Now().Add(time.Duration(c.Seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || (c.Tr != nil && i < 2); i++ {
		// A traced run alternates the plain entry with the benchmark's
		// own traced driver, at least once each; the first call is
		// always plain, so each traced call is checked against it.
		traced := c.Tr != nil && i%2 == 1
		stamp := &initStamp{}
		var (
			got *dycore.State
			st  distLayerStats
		)
		// Each call builds two rank engines and drops them. A collection
		// before it, outside its time, starts every call from the same
		// heap, as each set-up build does, so when the garbage of
		// earlier calls is collected does not decide mem_peak_mb.
		runtime.GC()
		t0 := time.Now()
		if traced {
			got, st = tracedDistRun(c.Tr, m, pl, stamp.wrap(init), distSteps)
		} else {
			got = core.RunDistributedDynamics(m, distNLev, distParts, precision.DP, stamp.wrap(init), distSteps, distDt)
		}
		t1 := time.Now()
		perStep := ms(t1.Sub(stamp.last)) / distSteps
		calls++
		if first == nil {
			first = got
		} else if !bitwiseEqual(got, first) {
			differ++
			if traced {
				tracedDiffer++
			}
		}
		if traced {
			tracedStepMS = append(tracedStepMS, perStep)
			layers = append(layers, st)
			continue
		}
		stepMS = append(stepMS, perStep)
		probes = append(probes, c.Probe.measure())
		callMS = append(callMS, ms(t1.Sub(t0)))
		prologueMS = append(prologueMS, ms(stamp.last.Sub(t0)))
	}
	sched := schedWaitP99US(sched0, readSched())
	r.memPeak(c.Probe)

	// The serial double-precision reference, after the timed window.
	// Every call equal to the first and the first equal to the
	// reference means every call reproduces the serial run; if the
	// first differs, every call counts as failed.
	refEng := dycore.New(m, distNLev, precision.DP)
	init(refEng.State())
	for i := 0; i < distSteps; i++ {
		refEng.Step(distDt)
	}
	failed := differ
	if !bitwiseEqual(first, refEng.State()) {
		failed = calls
	}
	r.ops(calls, failed)
	r.check("dyn_dist.bitwise_vs_serial", failed == 0, fmt.Sprintf("%d of %d calls differ from the serial DP run", failed, calls))

	// The gated figures are at the reference host speed; the report's
	// step figures are wall times.
	scaled := scaleAll(stepMS, probes)
	r.e2e("op_p50_ms", median(scaled))
	r.e2e("op_tail_ms", percentile(scaled, 75))
	r.e2e("ops_per_s", interquartileRate(scaled))
	p50 := median(stepMS)
	tl, tp, beyond := tail(stepMS)
	p75 := percentile(stepMS, 75)
	r.Detail["calls"] = float64(len(stepMS))
	r.Detail["steps_per_call"] = distSteps
	r.Detail["step_p50_ms"] = p50
	r.Detail["step_p75_ms"] = p75
	r.Detail["step_tail_ms"] = tl
	r.Detail["step_tail_pct"] = tp
	r.Detail["step_tail_beyond"] = float64(beyond)
	r.Detail["sypd"] = perSecond(distDt, p50) / 365
	// How a call splits: its prologue (plan, rank engines, initial
	// state) is outside the per-step figures; the plan alone is set-up.
	r.Detail["call_p50_ms"] = median(callMS)
	r.Detail["prologue_p50_ms"] = median(prologueMS)
	r.Detail["prologue_share_of_call"] = ratio(median(prologueMS), median(callMS))
	r.Detail["plan_share_of_call"] = ratio(median(planMS), median(callMS))

	if c.Tr == nil {
		return nil
	}
	r.check("dyn_dist.traced_equals_untraced", tracedDiffer == 0 && len(tracedStepMS) > 0,
		fmt.Sprintf("%d of %d traced calls differ", tracedDiffer, len(tracedStepMS)))
	var stStepMS, startUS, finishUS, imb []float64
	var hookMS, rankMS, waitMS float64
	var rounds, bytes int64
	for _, st := range layers {
		stStepMS = append(stStepMS, st.stepMS...)
		startUS = append(startUS, st.startUS...)
		finishUS = append(finishUS, st.finishUS...)
		imb = append(imb, core.LoadImbalance(st.rankWall))
		hookMS += st.hookMS
		for _, w := range st.rankWall {
			rankMS += ms(w)
		}
		waitMS += ms(st.ex.Wait)
		rounds += int64(st.ex.Rounds)
		bytes += st.ex.BytesSent
	}
	n := float64(len(layers))
	r.layer("dycore.step_ms", median(stStepMS))
	r.layer("dycore.share", ratio(sum(stStepMS)-hookMS, rankMS))
	r.layer("dycore.cell_levels_per_s", perSecond(float64(m.NCells*distNLev), median(tracedStepMS)))
	r.layer("comm.start_us", median(startUS))
	r.layer("comm.finish_us", median(finishUS))
	r.layer("comm.wait_share", ratio(waitMS, rankMS))
	r.layer("comm.bytes_per_step", ratio(float64(bytes), n*distSteps))
	r.layer("comm.rounds_per_step", ratio(float64(rounds), n*distSteps*distParts))
	r.layer("dist.imbalance", median(imb))
	r.layer("serve.sched_wait_us", sched)
	r.layer("trace.overhead", ratio(median(tracedStepMS), median(stepMS)))
	r.Detail["sypd_traced_over_untraced"] = ratio(median(stepMS), median(tracedStepMS))
	return nil
}
