// Command perfbench is the repository benchmark: it runs one workload
// of the GRIST reproduction for a fixed time, checks its outputs, and
// prints every metric by name with its unit. See README.md for the
// workloads and for which layer metric should move which end-to-end
// metric.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload climate_ml --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The lines before it
// are the full report (host stamp, checks, percentiles and sample
// counts), also written under .bench_build/perfbench/.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir holds everything a run leaves behind, relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eUnits and layerUnits are the metric vocabulary of BENCHMARK.json.
// Every run reports every name of its kind; a layer that does no work
// on a workload reports 0 there.
var e2eUnits = map[string]string{
	"setup_s":     "s",
	"op_p50_ms":   "ms",
	"op_tail_ms":  "ms",
	"ops_per_s":   "1/s",
	"mem_peak_mb": "MB",
}

var layerUnits = map[string]string{
	"dycore.step_ms":           "ms/step",
	"dycore.share":             "ratio",
	"dycore.cell_levels_per_s": "1/s",
	"tracer.step_ms":           "ms/step",
	"tracer.share":             "ratio",
	"mlphysics.compute_ms":     "ms/call",
	"mlphysics.share":          "ratio",
	"mlphysics.cols_per_s":     "1/s",
	"mlphysics.fallback_ratio": "ratio",
	"infer.tend_ms":            "ms/call",
	"infer.rad_ms":             "ms/call",
	"core.coupling_ms":         "ms/step",
	"comm.start_us":            "us/round",
	"comm.finish_us":           "us/round",
	"comm.wait_share":          "ratio",
	"comm.bytes_per_step":      "B/step",
	"comm.rounds_per_step":     "1/step",
	"dist.imbalance":           "ratio",
	"serve.handler_us":         "us/query",
	"serve.engine_us":          "us/query",
	"serve.sched_wait_us":      "us",
	"gen.late_ms":              "ms/query",
	"serve.hit_rate":           "ratio",
	"serve.coalesce_ratio":     "ratio",
	"serve.tile_builds":        "count",
	"ckpt.write_ms":            "ms/shard",
	"ckpt.commit_ms":           "ms/epoch",
	"ckpt.write_mb_s":          "MB/s",
	"serve.poll_ms":            "ms/poll",
	"serve.quarantined":        "count",
	"mesh.build_ms":            "ms/mesh",
	"core.plan_ms":             "ms/plan",
	"serve.server_ms":          "ms/server",
	"trace.overhead":           "ratio",
}

// runConfig is what a workload receives: its seed-derived inputs come
// from seed, it measures for seconds, and tr is nil when untraced.
type runConfig struct {
	Seed    int64
	Seconds float64
	Tr      *Tracer
	Dir     string     // scratch directory of this run, removed at exit
	Probe   *hostProbe // measured beside every timed operation
}

// report is a run's full result.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      hostStamp          `json:"host"`
	E2E       map[string]metric  `json:"end_to_end"`
	Layer     map[string]metric  `json:"per_layer,omitempty"`
	Detail    map[string]float64 `json:"detail"`
	Checks    []check            `json:"checks"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
}

// check is one output verification, counted in error_rate.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

func newReport() *report {
	return &report{E2E: map[string]metric{}, Layer: map[string]metric{}, Detail: map[string]float64{}}
}

func (r *report) e2e(name string, v float64)   { r.E2E[name] = metric{v, e2eUnits[name]} }
func (r *report) layer(name string, v float64) { r.Layer[name] = metric{v, layerUnits[name]} }

// check records a verification; a failed one is a failed operation.
func (r *report) check(name string, ok bool, note string) {
	r.Checks = append(r.Checks, check{name, ok, note})
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// ops records timed operations, failed of which produced a wrong or
// missing result.
func (r *report) ops(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(runConfig, *report) error{
	"climate_ml": runClimateML,
	"dyn_dist":   runDynDist,
	"serve_read": runServeRead,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: climate_ml, dyn_dist or serve_read")
	seed := fl.Int64("seed", 1, "seed every generated input derives from")
	seconds := fl.Int("seconds", 15, "measured seconds")
	trace := fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	runID := fmt.Sprintf("%s-%d-%x", *name, *seed, time.Now().UnixNano())
	probe, err := newHostProbe()
	if err != nil {
		return err
	}
	defer probe.close()
	cfg := runConfig{Seed: *seed, Seconds: float64(*seconds), Dir: dir, Probe: probe}
	if *trace == 1 {
		cfg.Tr = NewTracer(runID)
	}
	rep := newReport()
	rep.Workload, rep.Seed, rep.Seconds, rep.Traced = *name, *seed, cfg.Seconds, *trace == 1
	rep.Host = stampHost()
	steal0, total0 := cpuTicks()
	if err := fn(cfg, rep); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	// CPU time the hypervisor gave to other guests during the run: the
	// first suspect when a run's figures stand out.
	steal1, total1 := cpuTicks()
	rep.Detail["host_steal_share"] = ratio(steal1-steal0, total1-total0)
	rep.Detail["host_probe_p50_ms"] = median(probe.times)
	rep.Detail["host_probe_p75_ms"] = percentile(probe.times, 75)
	rep.Detail["host_probe_ref_ms"] = probeRefMS
	if rep.Attempted > 0 {
		rep.Detail["error_rate"] = float64(rep.Failed) / float64(rep.Attempted)
	}

	metrics, units := rep.E2E, e2eUnits
	if rep.Traced {
		metrics, units = rep.Layer, layerUnits
		for n := range layerUnits {
			if _, ok := rep.Layer[n]; !ok {
				rep.layer(n, 0) // the layer does no work on this workload
			}
		}
	}
	for n := range units {
		if _, ok := metrics[n]; !ok {
			return fmt.Errorf("internal: metric %s not reported", n)
		}
	}

	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("report-%s-seed%d-trace%d", *name, *seed, *trace))
	if err := os.WriteFile(base+".json", full, 0o644); err != nil {
		return err
	}
	if cfg.Tr != nil {
		meta := map[string]any{"workload": *name, "seed": *seed, "host": rep.Host}
		if err := cfg.Tr.WriteFile(base+"-spans.json", meta); err != nil {
			return err
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Failed == 0 && rep.Attempted > 0, max(rep.Attempted, 1), rep.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n%s\n", full, last)
	return nil
}

// hostStamp identifies the machine and code a result was measured on.
type hostStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_revision"`
	SourceHash string `json:"source_sha256"`
}

func stampHost() hostStamp {
	h := hostStamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		SourceHash: sourceHash("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && h.Revision != "unknown" {
			h.Revision += "-dirty"
		}
	}
	return h
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash hashes every go.mod and .go file under root (skipping
// dot-directories), so a result names the code it measured even in a
// checkout without git metadata.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTicks returns the steal and total ticks of /proc/stat's cpu line
// (zeros where it is unreadable).
func cpuTicks() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// memPeak records mem_peak_mb. A workload calls it when its measured
// window ends, before it builds references or checks answers, so the
// figure holds the workload's own footprint and none of the checks'.
// The host probe's buffers, resident from the start, are left out.
func (r *report) memPeak(hp *hostProbe) { r.e2e("mem_peak_mb", peakRSSMB(hp.mapped())) }

// peakRSSMB returns the process's peak resident set (VmHWM) in MB,
// less the outside bytes the benchmark mapped for itself beside the Go
// heap, falling back to the Go runtime's total obtained memory.
func peakRSSMB(outside int) float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return (kb*1024 - float64(outside)) / (1 << 20)
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
