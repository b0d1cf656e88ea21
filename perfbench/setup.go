package main

import (
	"runtime"
	"time"
)

// setupReps is how many times a workload builds its set-up; setup_s is
// the median, so one slow build does not move it.
const setupReps = 7

// repeatSetup runs build setupReps times and returns the median time of
// a build in seconds at the reference host speed, each build scaled by
// the host probe run after it, and the median wall time. build keeps
// whatever the last call made. Before each rebuild, drop clears the
// benchmark's references to the previous build, and a collection frees
// it, so every build starts from the same heap and no two builds are
// live at once.
func repeatSetup(hp *hostProbe, drop func(), build func() error) (scaled, wall float64, err error) {
	walls := make([]float64, 0, setupReps)
	probes := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		drop()
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		probes = append(probes, hp.measure())
	}
	return median(scaleAll(walls, probes)), median(walls), nil
}

// stopwatch times one call and appends its wall time in ms to *dst.
func stopwatch(dst *[]float64, f func()) {
	t0 := time.Now()
	f()
	*dst = append(*dst, ms(time.Since(t0)))
}
