// Command nsquared runs the O(N^2) ring-decomposed direct benchmark
// the paper used to compare raw machine speed against the GRAPE
// special-purpose hardware, and prints the paper-style Gflops
// accounting.
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/direct"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/perfmodel"
)

func main() {
	n := flag.Int("n", 20000, "number of bodies")
	procs := flag.Int("procs", 8, "simulated processors")
	steps := flag.Int("steps", 4, "timesteps (the paper ran 4)")
	flag.Parse()

	sys := ic.UniformSphere(*n, 1.0, 7)
	start := time.Now()
	pp := direct.RingRun(*procs, *steps, sys.Pos, sys.Mass, 1e-6)
	wall := time.Since(start).Seconds()
	flops := pp * 38
	fmt.Printf("N=%d procs=%d steps=%d\n", *n, *procs, *steps)
	fmt.Printf("interactions %d, flops %d\n", pp, flops)
	fmt.Printf("host: %.2fs, %.3f Gflops, %.2f ns per interaction\n", wall, float64(flops)/wall/1e9, wall*1e9/float64(pp))

	// The paper's exact benchmark: 1e6 bodies, 4 steps, 6800 procs.
	paperFlops := uint64(4) * 38 * 1_000_000 * 1_000_000
	est := perfmodel.ASCIRed.Model(paperFlops, perfmodel.RegimeKernel, msg.PhaseTraffic{})
	fmt.Printf("paper benchmark modeled: %s (paper: 635 Gflops in 239.3s)\n", est)
}
