package main

import (
	"fmt"
	"runtime"
	"time"
)

// fingerprint identifies the host a result was measured on; results from
// different fingerprints are not comparable.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("NumCPU=%d GOMAXPROCS=%d %s %s/%s", f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.GOOS, f.GOARCH)
}

// spinSink keeps the calibration loop from being optimized away.
var spinSink uint64

// calibrationSpin times a fixed integer loop and returns the fastest of
// several repetitions in nanoseconds. The minimum filters out preemptions,
// so the figure moves only when the CPU itself got slower or busier.
func calibrationSpin() float64 {
	const reps, iters = 15, 1 << 18
	best := time.Duration(1 << 62)
	for r := 0; r < reps; r++ {
		x := uint64(r) + 1
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x = mix64(x)
		}
		if d := time.Since(t0); d < best {
			best = d
		}
		spinSink += x
	}
	return float64(best.Nanoseconds())
}

// spinMoved is the relative change between two calibration spins.
func spinMoved(before, after float64) float64 {
	if before <= 0 {
		return 0
	}
	d := after/before - 1
	if d < 0 {
		d = -d
	}
	return d
}
