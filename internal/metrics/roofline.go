// Roofline analysis for the interaction kernels: pair the 38-flop
// interaction accounting with a bytes-moved count (diag.KernelBytes)
// to place the run on a roofline plot -- arithmetic intensity on the
// x-axis, achieved flop rate against the machine's compute and memory
// ceilings. The paper argued its kernels were compute-bound on the
// Pentium Pro ("32 bytes per 38 flops"); this section makes the same
// argument measurable on the host the run actually used.
//
// Two flop counts appear. KernelFlops, Intensity and AchievedFlops are
// in the paper's accounting (38 per interaction, what every rate in
// the repo is quoted in); ExecutedFlops is what the production
// kernels really execute (diag.ExecutedFlops: 33 per interaction, 67
// with quadrupole terms, in float32, the same on every kernel path).
// The ceilings bound executed work, so Ceiling and Utilization are in
// executed flops: a kernel cannot exceed 100% by being charged for
// arithmetic it no longer does.
package metrics

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/grav"
)

// Roofline is the roofline section of a RunReport. The first four
// fields are pure accounting filled by BuildReport; the Peak* fields
// and everything derived from them are host measurements filled by
// Calibrate (perfreport does this at render time, so a report written
// on one machine can be calibrated against another).
type Roofline struct {
	// KernelFlops and KernelBytes are the totals over all ranks under
	// the paper's flop accounting and the list kernels' bytes-moved
	// accounting (see diag.KernelBytes).
	KernelFlops uint64 `json:"kernel_flops"`
	KernelBytes uint64 `json:"kernel_bytes"`
	// Intensity is KernelFlops/KernelBytes in flops/byte.
	Intensity float64 `json:"intensity_flops_per_byte"`
	// AchievedFlops is the run's sustained rate, counted flops/s.
	AchievedFlops float64 `json:"achieved_flops"`
	// ExecutedFlops is what the kernels executed for that work, and
	// ExecutedPerInteraction its mean per gravitational interaction,
	// to set beside the counted 38 (+70 with quadrupoles).
	ExecutedFlops          uint64  `json:"executed_flops,omitempty"`
	ExecutedPerInteraction float64 `json:"executed_flops_per_interaction,omitempty"`
	// Kernel names the interaction-kernel code path the run's host took
	// and its precision (grav.KernelPath: "avx512-f32", "avx2-f32" or
	// "go-f32"). KernelBytes and ExecutedFlops depend on it, so two
	// reports compare only at the same path.
	Kernel string `json:"kernel,omitempty"`
	// Block is that path's block of targets and sources
	// (grav.KernelBlock: "8 targets × 2 sources", "4 targets × 2
	// sources" or "1 target × 1 source"); its target count is the
	// divisor of KernelBytes.
	Block string `json:"block,omitempty"`

	// PeakFlops is the measured (or asserted) compute ceiling, flops/s.
	PeakFlops float64 `json:"peak_flops,omitempty"`
	// PeakBandwidth is the measured memory ceiling, bytes/s.
	PeakBandwidth float64 `json:"peak_bandwidth,omitempty"`
	// RidgeIntensity is PeakFlops/PeakBandwidth: below it a kernel is
	// bandwidth-limited, above it compute-limited.
	RidgeIntensity float64 `json:"ridge_intensity,omitempty"`
	// Ceiling is min(PeakFlops, executed intensity * PeakBandwidth):
	// the roofline bound on this kernel's executed flop rate.
	Ceiling float64 `json:"ceiling_flops,omitempty"`
	// Bound is "compute" or "memory" depending on which side of the
	// ridge the kernel sits.
	Bound string `json:"bound,omitempty"`
	// Utilization is the executed flop rate over Ceiling.
	Utilization float64 `json:"utilization,omitempty"`
}

// executedShare is ExecutedFlops/KernelFlops, the factor from counted
// to executed flops; 1 for a report that predates the distinction.
func (r *Roofline) executedShare() float64 {
	if r.ExecutedFlops == 0 || r.KernelFlops == 0 {
		return 1
	}
	return float64(r.ExecutedFlops) / float64(r.KernelFlops)
}

// NewRoofline builds the accounting half from run totals; wall is the
// run's wall-clock seconds.
func NewRoofline(flops, bytes uint64, wall float64) *Roofline {
	r := &Roofline{KernelFlops: flops, KernelBytes: bytes}
	if bytes > 0 {
		r.Intensity = float64(flops) / float64(bytes)
	}
	if wall > 0 {
		r.AchievedFlops = float64(flops) / wall
	}
	return r
}

// Calibrate fills the machine half against the given ceilings
// (flops/s and bytes/s) and derives the ridge point, the kernel's
// roofline ceiling, which side it binds on, and the utilization.
func (r *Roofline) Calibrate(peakFlops, peakBandwidth float64) {
	r.PeakFlops = peakFlops
	r.PeakBandwidth = peakBandwidth
	if peakBandwidth > 0 {
		r.RidgeIntensity = peakFlops / peakBandwidth
	}
	exec := r.executedShare()
	r.Ceiling = peakFlops
	r.Bound = "compute"
	if bw := exec * r.Intensity * peakBandwidth; bw > 0 && bw < r.Ceiling {
		r.Ceiling = bw
		r.Bound = "memory"
	}
	if r.Ceiling > 0 {
		r.Utilization = exec * r.AchievedFlops / r.Ceiling
	}
}

// MeasurePeakFlops estimates the host's single-precision compute
// ceiling in flops/s for the instruction mix the interaction kernels
// use: every core runs grav.PeakProbe, chains of independent float32
// fused multiply-adds (the kernels' value chains are mostly FMAs, each
// counted as two flops) at the kernels' register width: sixteen lanes
// on the AVX-512 path, eight on the AVX2 path, scalar fma32 in the Go
// loops. This is
// the ceiling they are compared against, stated in the report as
// "measured".
func MeasurePeakFlops() float64 {
	workers := runtime.GOMAXPROCS(0)
	const steps = 1 << 22
	var wg sync.WaitGroup
	flops := make([]float64, workers)
	sink := make([]float64, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			flops[w], sink[w] = grav.PeakProbe(steps)
		}(w)
	}
	wg.Wait()
	el := time.Since(start).Seconds()
	if el <= 0 {
		return 0
	}
	total := 0.0
	for _, f := range flops {
		total += f
	}
	return total / el
}

// MeasurePeakBandwidth estimates the host's memory read bandwidth in
// bytes/s: every core streams a 32 MiB float64 buffer (well past any
// LLC) with a reduction that the compiler cannot elide.
func MeasurePeakBandwidth() float64 {
	workers := runtime.GOMAXPROCS(0)
	const n = 4 << 20 // 4M float64 = 32 MiB per worker
	const passes = 4
	bufs := make([][]float64, workers)
	for w := range bufs {
		bufs[w] = make([]float64, n)
		for i := range bufs[w] {
			bufs[w][i] = float64(i)
		}
	}
	var wg sync.WaitGroup
	sink := make([]float64, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s0, s1, s2, s3 float64
			b := bufs[w]
			for p := 0; p < passes; p++ {
				for i := 0; i+4 <= len(b); i += 4 {
					s0 += b[i]
					s1 += b[i+1]
					s2 += b[i+2]
					s3 += b[i+3]
				}
			}
			sink[w] = s0 + s1 + s2 + s3
		}(w)
	}
	wg.Wait()
	el := time.Since(start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(workers) * float64(n) * 8 * passes / el
}
