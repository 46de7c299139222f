// Crossover: where does the O(N log N) treecode beat the O(N^2)
// direct sum, and what does the force accuracy cost? This example
// sweeps N, measures both algorithms' interaction counts and wall
// times on the same kernels (the direct sum is the O(N^2) ring on one
// rank, the code nsquared runs), and verifies the treecode error
// against the exact float64 direct answer -- the quantitative footing
// of the paper's claim that a good algorithm beats a
// factor-10-per-5-years hardware curve.
package main

import (
	"fmt"
	"math"
	"time"

	hot "repro"
	"repro/internal/direct"
	"repro/internal/vec"
)

func main() {
	fmt.Printf("%8s %14s %14s %9s %10s %10s %12s\n",
		"N", "tree inter.", "direct inter.", "ratio", "tree ms", "direct ms", "rms error")
	cfg := hot.Defaults()
	cfg.AccelTol = 1e-5

	for _, n := range []int{500, 1000, 2000, 4000, 8000, 16000} {
		bodies := hot.PlummerSphere(n, 1.0, 7)

		t0 := time.Now()
		sim, err := hot.NewSerial(bodies, cfg)
		if err != nil {
			panic(err)
		}
		treeMS := time.Since(t0).Seconds() * 1e3
		info := sim.Info()

		pos := make([]vec.V3, n)
		mass := make([]float64, n)
		for i, b := range bodies {
			pos[i], mass[i] = vec.V3{X: b.Pos[0], Y: b.Pos[1], Z: b.Pos[2]}, b.Mass
		}
		t0 = time.Now()
		directPP := direct.RingRun(1, 1, pos, mass, cfg.Eps*cfg.Eps)
		directMS := time.Since(t0).Seconds() * 1e3

		accD, _ := hot.DirectForces(bodies, cfg.Eps)
		rms := forceError(sim, accD)

		fmt.Printf("%8d %14d %14d %9.1f %10.1f %10.1f %12.2e\n",
			n, info.Interactions, directPP,
			float64(directPP)/float64(info.Interactions),
			treeMS, directMS, rms)
	}
	fmt.Println("\nthe interaction ratio grows ~N/log N: at the paper's N = 322M it")
	fmt.Println("reaches ~1e5, the paper's 'treecode is 10^5 times more efficient'.")
}

// forceError returns the RMS-relative deviation of the treecode
// accelerations from the exact reference ref: it takes one step of
// dt = 1e-9 and reads each body's acceleration as its velocity change
// over dt. A change of ~1e-9 in an O(1) velocity keeps only ~7 of
// float64's 16 digits, so the column's floor is ~1e-7 relative.
func forceError(sim *hot.Serial, ref [][3]float64) float64 {
	before := sim.Bodies()
	sim.Step(1e-9)
	after := sim.Bodies()
	var num, den float64
	for i := range ref {
		for k := 0; k < 3; k++ {
			a := (after[i].Vel[k] - before[i].Vel[k]) / 1e-9
			d := a - ref[i][k]
			num += d * d
			den += ref[i][k] * ref[i][k]
		}
	}
	return math.Sqrt(num / den)
}
