package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark shares its host with other guests, whose load moves the
// speed of this one's cores, caches and memory from second to second.
// Over minutes the same dyn_dist step of the same code and seed took
// from 106 to 150 ms (2-core Intel Xeon), so ten runs of one commit
// spread past any useful bound. The host probe measures that speed next
// to every timed operation, on buffers of its own, with one goroutine
// per core like the workloads. Each timed figure is scaled by
// probeRefMS over the probe's time beside it, which expresses the
// figure at a fixed host speed; the wall figures stay in the report.
//
// The probe has two parts, each taking about half of it on an idle
// host, because the guests contend for two things. A sweep over a
// buffer larger than the cores' private caches and smaller than the
// shared cache slows when they load the shared cache and memory. A
// multiply-add loop over a buffer inside each core's private cache
// slows when they take the core's execution units or clock. Over
// five runs of each model workload, scaling by their sum left less
// spread than scaling by either alone (README.md, Host speed).
const (
	// probeSweepBytes is the sweep's buffer, split over the goroutines.
	probeSweepBytes = 32 << 20
	// probeSweepPasses timed sweeps follow one untimed sweep that loads
	// the buffer back into cache after the workload evicted it, so what
	// the workload did to the cache does not move the probe.
	probeSweepPasses = 2
	// probeCoreBytes is each goroutine's buffer of the core loop, and
	// probeCorePasses its timed passes, after one untimed pass.
	probeCoreBytes  = 256 << 10
	probeCorePasses = 260
	// probeRefMS is the reference speed: the probe's time on an idle
	// 2-core Intel Xeon (Sapphire Rapids). Scaled figures equal wall
	// figures on a host running that fast.
	probeRefMS = 10.0
)

// hostProbe measures the host's current speed.
type hostProbe struct {
	mem   []byte      // mmapped, outside the Go heap
	sweep [][]float64 // one part of the sweep buffer per goroutine
	core  [][]float64 // one core-loop buffer per goroutine
	sink  float64     // keeps the loops from being optimized away
	times []float64   // ms of every measurement
}

// newHostProbe maps and fills the probe's buffers. They live outside
// the Go heap, so they do not change when the garbage collector runs,
// and mem_peak_mb leaves them out (see mapped).
func newHostProbe() (*hostProbe, error) {
	if _, err := readThreadCPU(); err != nil {
		return nil, fmt.Errorf("thread CPU clock: %w", err)
	}
	n := runtime.GOMAXPROCS(0)
	mem, err := syscall.Mmap(-1, 0, probeSweepBytes+n*probeCoreBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host probe buffer: %w", err)
	}
	buf := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), len(mem)/8)
	for i := range buf {
		buf[i] = float64(i%97) * 1e-3
	}
	h := &hostProbe{mem: mem}
	sw, core := buf[:probeSweepBytes/8], buf[probeSweepBytes/8:]
	for k := 0; k < n; k++ {
		h.sweep = append(h.sweep, sw[k*len(sw)/n:(k+1)*len(sw)/n])
		h.core = append(h.core, core[k*probeCoreBytes/8:(k+1)*probeCoreBytes/8])
	}
	return h, nil
}

// mapped is the size of the probe's buffers in bytes.
func (h *hostProbe) mapped() int { return len(h.mem) }

// close unmaps the buffers.
func (h *hostProbe) close() error { return syscall.Munmap(h.mem) }

// sweepSum sums xs passes times, a load per element.
func sweepSum(xs []float64, passes int) float64 {
	var s0, s1, s2, s3 float64
	for p := 0; p < passes; p++ {
		for i := 0; i+3 < len(xs); i += 4 {
			s0 += xs[i]
			s1 += xs[i+1]
			s2 += xs[i+2]
			s3 += xs[i+3]
		}
	}
	return s0 + s1 + s2 + s3
}

// coreLoop multiplies and adds over xs passes times, into eight
// independent sums, so it runs as fast as the core issues them.
func coreLoop(xs []float64, passes int) float64 {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	for p := 0; p < passes; p++ {
		for i := 0; i+7 < len(xs); i += 8 {
			a0 += xs[i] * 1.0000001
			a1 += xs[i+1] * 0.9999999
			a2 += xs[i+2] * 1.0000002
			a3 += xs[i+3] * 0.9999998
			a4 += xs[i+4] * 1.0000003
			a5 += xs[i+5] * 0.9999997
			a6 += xs[i+6] * 1.0000004
			a7 += xs[i+7] * 0.9999996
		}
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

// run applies loop to every buffer of bufs on its own goroutine, passes
// times each, and returns the largest CPU time in ms that a goroutine's
// thread spent on it. CPU time leaves out the time the hypervisor gave
// to other guests (steal) and the time the thread waited for a CPU, so
// it moves with the speed of the cores and caches only. Wall time did
// not do: under steal a probe that keeps every core busy is throttled
// more than a workload that does not.
func (h *hostProbe) run(bufs [][]float64, loop func([]float64, int) float64, passes int) float64 {
	sums := make([]float64, len(bufs))
	cpu := make([]time.Duration, len(bufs))
	var wg sync.WaitGroup
	for k := range bufs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPU()
			sums[k] = loop(bufs[k], passes)
			cpu[k] = threadCPU() - c0
		}(k)
	}
	wg.Wait()
	var d time.Duration
	for k, s := range sums {
		h.sink += s
		d = max(d, cpu[k])
	}
	return ms(d)
}

// threadCPU returns the CPU time of the calling thread. The kernel
// leaves steal out of it where it accounts steal (paravirtual time
// accounting, as on KVM guests).
func threadCPU() time.Duration {
	d, _ := readThreadCPU() // newHostProbe checked that the clock reads
	return d
}

func readThreadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()), nil
}

// measure runs the probe and returns its time in ms: the timed passes
// of both parts, each after its untimed pass.
func (h *hostProbe) measure() float64 {
	h.run(h.sweep, sweepSum, 1)
	d := h.run(h.sweep, sweepSum, probeSweepPasses)
	h.run(h.core, coreLoop, 1)
	d += h.run(h.core, coreLoop, probeCorePasses)
	h.times = append(h.times, d)
	return d
}

// atRef scales a time measured while the probe took probeMS to the
// reference host speed.
func atRef(t, probeMS float64) float64 { return t * probeRefMS / probeMS }

// scaleAll scales every ts[i] by its probe time probes[i].
func scaleAll(ts, probes []float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = atRef(t, probes[i])
	}
	return out
}
