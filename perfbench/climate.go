package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"gristgo/internal/core"
	"gristgo/internal/dycore"
	"gristgo/internal/mesh"
	"gristgo/internal/mlphysics"
	"gristgo/internal/nn"
	"gristgo/internal/physics"
	"gristgo/internal/precision"
	"gristgo/internal/synthclim"
	"gristgo/internal/tracer"
)

// climate_ml: the serial AI-enhanced coupled model, G4 L10 in mixed
// precision, with the ML physics suite at the reproduction architecture
// (ResUnit CNN + ResMLP) coupled every two dynamics steps.
const (
	climateLevel = 4
	climateNLev  = 10
	climateDyn   = 120.0 // s; tracer and physics steps are 2x this
	// gateStep is the physics step after which the mixed run is held
	// against a double-precision reference (§3.4: ps/vor within 5%).
	gateStep = 6
)

func climateSteps() mesh.TimestepConfig {
	return mesh.TimestepConfig{Dyn: climateDyn, Trac: 2 * climateDyn, Phy: 2 * climateDyn, Rad: 2 * climateDyn}
}

// climateInputs are the seed-derived inputs of the workload.
type climateInputs struct {
	weightSeed           int64
	bubbleLat, bubbleLon float64
	bubbleAmp            float64
	period               synthclim.Period
	day                  int
}

func newClimateInputs(seed int64) climateInputs {
	rng := rand.New(rand.NewSource(seed))
	p := synthclim.Table1()
	return climateInputs{
		weightSeed: rng.Int63(),
		bubbleLat:  (rng.Float64() - 0.5) * 1.2,
		bubbleLon:  rng.Float64() * 2 * math.Pi,
		bubbleAmp:  1 + rng.Float64(),
		period:     p[rng.Intn(len(p))],
		day:        rng.Intn(20),
	}
}

// newMLSuite builds the ML physics suite with random weights from the
// seed. The normalizers are fitted to samples around a standard
// atmosphere, and the output normalizers scale the clamped network
// outputs to physically small tendencies, so untrained weights cannot
// destabilize the coupled run (throughput does not depend on the
// weight values).
func newMLSuite(in climateInputs, nlev int) *mlphysics.Suite {
	rng := rand.New(rand.NewSource(in.weightSeed))
	fit := func(n int, mean, std func(i int) float64) *mlphysics.Normalizer {
		rows := make([][]float64, 64)
		for r := range rows {
			rows[r] = make([]float64, n)
			for i := range rows[r] {
				rows[r][i] = mean(i) + std(i)*rng.NormFloat64()
			}
		}
		return mlphysics.NewNormalizer(rows)
	}
	// Channel-major tendency inputs: U, V, T, Qv, P per level.
	tendMean := []float64{0, 0, 260, 0.004, 55000}
	tendStd := []float64{10, 5, 20, 0.004, 25000}
	radStd := func(i int) float64 {
		switch {
		case i < nlev:
			return 20
		case i < 2*nlev:
			return 0.004
		case i == 2*nlev:
			return 15
		}
		return 0.3
	}
	radMean := func(i int) float64 {
		switch {
		case i < nlev:
			return 260
		case i < 2*nlev:
			return 0.004
		case i == 2*nlev:
			return 290
		}
		return 0.3
	}
	radOutMean := []float64{200, 350, 3} // gsw, glw W/m^2; precip mm/day
	radOutStd := []float64{80, 40, 2}
	return &mlphysics.Suite{
		NLev: nlev,
		Tend: nn.NewResUnitCNN(mlphysics.TendencyChannels, 16, mlphysics.TendencyOutputs, nlev, 5, 3, rng),
		Rad:  nn.NewResMLP(2*nlev+2, 48, mlphysics.RadiationOutputs, 7, rng),
		TendIn: fit(mlphysics.TendencyChannels*nlev,
			func(i int) float64 { return tendMean[i/nlev] },
			func(i int) float64 { return tendStd[i/nlev] }),
		TendOut: fit(mlphysics.TendencyOutputs*nlev,
			func(int) float64 { return 0 },
			func(i int) float64 {
				if i < nlev {
					return 1e-5 // K/s: ~1 K/day heating rates
				}
				return 1e-8 // kg/kg/s
			}),
		RadIn:  fit(2*nlev+2, radMean, radStd),
		RadOut: fit(mlphysics.RadiationOutputs, func(i int) float64 { return radOutMean[i] }, func(i int) float64 { return radOutStd[i] }),
	}
}

// newClimateModel builds and initializes the coupled model on m.
func newClimateModel(in climateInputs, m *mesh.Mesh, mode precision.Mode) (*core.Model, *mlphysics.Suite) {
	suite := newMLSuite(in, climateNLev)
	cfg := core.Config{GridLevel: climateLevel, NLev: climateNLev, Mode: mode,
		Steps: climateSteps(), HostWorkers: runtime.NumCPU()}
	mod := core.NewModelOnMesh(cfg, suite, m)
	suite.SetPrecision(mode)
	cl := synthclim.ForPeriod(in.period, in.day)
	mod.Clim = cl
	mod.InitializeClimate(cl)
	mod.Engine.State().AddThermalBubble(in.bubbleLat, in.bubbleLon, 0.3, in.bubbleAmp)
	return mod, suite
}

// climateTrace wraps the model's three layers so each call is timed
// from outside. on selects whether the current physics step is traced;
// when off the wrappers only forward.
type climateTrace struct {
	tr     *Tracer
	on     bool
	parent int
	dyn    []float64 // ms per Engine.Step
	trac   []float64 // ms per Transport.Step
	phys   []float64 // ms per Physics.Compute
}

// time runs f, and when the step is traced records it as a span named
// name under the step's span and its wall time in *dst.
func (ct *climateTrace) time(name string, dst *[]float64, f func()) {
	if !ct.on {
		f()
		return
	}
	t0 := time.Now()
	f()
	t1 := time.Now()
	ct.tr.Record(name, ct.parent, t0, t1)
	*dst = append(*dst, ms(t1.Sub(t0)))
}

type tracedEngine struct {
	dycore.Engine
	ct *climateTrace
}

func (e tracedEngine) Step(dt float64) {
	e.ct.time("dycore.step", &e.ct.dyn, func() { e.Engine.Step(dt) })
}

type tracedTransport struct {
	tracer.Transport
	ct *climateTrace
}

func (t tracedTransport) Step(f *tracer.Field, flux []float64, dt float64) {
	t.ct.time("tracer.step", &t.ct.trac, func() { t.Transport.Step(f, flux, dt) })
}

type tracedPhysics struct {
	physics.Scheme
	ct *climateTrace
}

func (p tracedPhysics) Compute(in *physics.Input, out *physics.Output, dt float64) {
	p.ct.time("mlphysics.compute", &p.ct.phys, func() { p.Scheme.Compute(in, out, dt) })
}

// gateFields are the §3.4 observation fields of a state.
func gateFields(mod *core.Model) (ps, vor []float64) {
	return mod.Engine.State().SurfacePressure(), mod.Engine.VorticityAtLevel(climateNLev / 2)
}

func allFinite(xs ...[]float64) bool {
	for _, x := range xs {
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

func runClimateML(c runConfig, r *report) error {
	in := newClimateInputs(c.Seed)
	season := synthclim.ForPeriod(in.period, in.day).Season
	var (
		m      *mesh.Mesh
		mod    *core.Model
		suite  *mlphysics.Suite
		meshMS []float64
	)
	// Set-up ends after the first physics step, which compiles the
	// inference plans and sizes every buffer: users pay that once.
	setup, setupWall, err := repeatSetup(c.Probe, func() { m, mod, suite = nil, nil, nil }, func() error {
		stopwatch(&meshMS, func() { m = mesh.New(climateLevel).ReorderBFS() })
		mod, suite = newClimateModel(in, m, precision.Mixed)
		mod.StepPhysics(season)
		return nil
	})
	if err != nil {
		return err
	}
	r.e2e("setup_s", setup)
	r.Detail["setup_wall_s"] = setupWall
	r.layer("mesh.build_ms", median(meshMS))
	suite.DrainTimings(func(string, time.Duration, int) {})

	ct := &climateTrace{tr: c.Tr, parent: -1}
	if c.Tr != nil {
		mod.Engine = tracedEngine{mod.Engine, ct}
		mod.Transport = tracedTransport{mod.Transport, ct}
		mod.Physics = tracedPhysics{mod.Physics, ct}
	}

	var (
		walls, tracedWalls, plainWalls []float64
		probes                         []float64 // host probe after each step
		coupling                       []float64
		gatePs, gateVor                []float64
	)
	sched0 := readSched()
	deadline := time.Now().Add(time.Duration(c.Seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		// A traced run alternates traced and plain steps, so the
		// tracing overhead is measured within one run.
		ct.on = c.Tr != nil && i%2 == 0
		t0 := time.Now()
		if ct.on {
			ct.parent = c.Tr.Begin("core.step_physics", -1, t0)
		}
		mod.StepPhysics(season)
		t1 := time.Now()
		w := ms(t1.Sub(t0))
		walls = append(walls, w)
		if ct.on {
			c.Tr.End(ct.parent, t1)
			tracedWalls = append(tracedWalls, w)
		} else {
			plainWalls = append(plainWalls, w)
		}
		if i+1 == gateStep {
			gatePs, gateVor = gateFields(mod)
		}
		probes = append(probes, c.Probe.measure())
	}
	sched := schedWaitP99US(sched0, readSched())
	steps := len(walls)
	// A window too short to reach the gate step is extended, untimed.
	ct.on = false
	for i := steps; gatePs == nil; i++ {
		mod.StepPhysics(season)
		if i+1 == gateStep {
			gatePs, gateVor = gateFields(mod)
		}
	}
	r.ops(steps, 0)
	r.memPeak(c.Probe)

	_, _, _, dtPhy := mod.EffectiveSteps()
	// The gated figures are at the reference host speed; the report's
	// step figures are wall times.
	scaled := scaleAll(walls, probes)
	r.e2e("op_p50_ms", median(scaled))
	r.e2e("op_tail_ms", percentile(scaled, 75))
	r.e2e("ops_per_s", interquartileRate(scaled))
	p50 := median(walls)
	tl, tp, beyond := tail(walls)
	p75 := percentile(walls, 75)
	r.Detail["steps"] = float64(steps)
	r.Detail["step_p50_ms"] = p50
	r.Detail["step_p75_ms"] = p75
	r.Detail["step_tail_ms"] = tl
	r.Detail["step_tail_pct"] = tp
	r.Detail["step_tail_beyond"] = float64(beyond)
	r.Detail["sypd"] = perSecond(dtPhy, p50) / 365

	// Output checks, outside the timed window.
	ps, vor := gateFields(mod)
	r.check("climate_ml.finite", allFinite(ps, vor, mod.Tracers.Mass), "")
	fb := suite.FallbackCount()
	r.check("climate_ml.no_ml_fallback", fb == 0, fmt.Sprintf("%d fallbacks", fb))
	ref, _ := newClimateModel(in, m, precision.DP)
	for i := 0; i <= gateStep; i++ { // the set-up step, then gateStep more
		ref.StepPhysics(season)
	}
	refPs, refVor := gateFields(ref)
	dev := precision.Measure(gatePs, refPs, gateVor, refVor)
	r.Detail["gate_ps_rel_l2"] = dev.Ps
	r.Detail["gate_vor_rel_l2"] = dev.Vor
	r.check("climate_ml.gate", dev.Acceptable(), fmt.Sprintf("ps %.3g vor %.3g vs DP", dev.Ps, dev.Vor))

	if c.Tr == nil {
		return nil
	}
	// Per-layer: core's coupling is the physics step's self time.
	spans := c.Tr.Spans()
	kids := childrenOf(spans)
	var accounted, wallSum float64
	for _, s := range spans {
		if s.Name == "core.step_physics" && s.End >= 0 {
			self := float64(selfTime(s.Start, s.End, kids[s.ID])) / 1e6
			coupling = append(coupling, self)
			wallSum += float64(s.End-s.Start) / 1e6
		}
	}
	dynSum, tracSum, physSum := sum(ct.dyn), sum(ct.trac), sum(ct.phys)
	accounted = dynSum + tracSum + physSum + sum(coupling)
	r.layer("dycore.step_ms", median(ct.dyn))
	r.layer("dycore.share", ratio(dynSum, wallSum))
	r.layer("dycore.cell_levels_per_s", perSecond(float64(m.NCells*climateNLev), median(ct.dyn)))
	r.layer("tracer.step_ms", median(ct.trac))
	r.layer("tracer.share", ratio(tracSum, wallSum))
	r.layer("mlphysics.compute_ms", median(ct.phys))
	r.layer("mlphysics.share", ratio(physSum, wallSum))
	r.layer("mlphysics.cols_per_s", perSecond(float64(m.NCells), median(ct.phys)))
	r.layer("mlphysics.fallback_ratio", ratio(float64(fb), float64(steps)))
	r.layer("core.coupling_ms", median(coupling))
	suite.DrainTimings(func(name string, d time.Duration, calls int) {
		switch {
		case strings.HasPrefix(name, "ml_tendency_infer"):
			r.layer("infer.tend_ms", ms(d)/float64(calls))
		case strings.HasPrefix(name, "ml_radiation_infer"):
			r.layer("infer.rad_ms", ms(d)/float64(calls))
		}
	})
	r.layer("serve.sched_wait_us", sched)
	r.layer("trace.overhead", ratio(median(tracedWalls), median(plainWalls)))
	r.Detail["accounted_share"] = ratio(accounted, wallSum)
	r.Detail["sypd_traced_over_untraced"] = ratio(median(plainWalls), median(tracedWalls))
	return nil
}
