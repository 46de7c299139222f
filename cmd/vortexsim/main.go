// Command vortexsim runs the fusion of two vortex rings with the
// vortex particle method -- the paper's Hyglac showcase -- including
// the periodic remeshing that grows the particle count, and reports
// the paper-style flop accounting.
package main

import (
	"flag"
	"fmt"

	"repro/internal/cliutil"
	"repro/internal/diag"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/perfmodel"
	"repro/internal/runner"
	"repro/internal/vortex"
)

func main() {
	nTheta := flag.Int("ntheta", 64, "points around each ring")
	nCore := flag.Int("ncore", runner.RingCore, "points across each core")
	steps := flag.Int("steps", 30, "timesteps")
	remeshEvery := flag.Int("remesh", 10, "remesh interval (0 = off)")
	dt := flag.Float64("dt", 0.02, "timestep")
	sigma := flag.Float64("sigma", runner.RingSigma, "core smoothing radius")
	theta := flag.Float64("theta", runner.RingTheta, "opening angle")
	procs := flag.Int("procs", 1, "in-process ranks")
	obs := cliutil.ObsFlags("vortexsim")
	flag.Parse()
	if _, err := (cliutil.Flags{
		N: *nTheta * *nCore, Procs: *procs, Steps: *steps,
	}).Validate(); err != nil {
		cliutil.Fail("vortexsim", err)
	}
	obs.Start(*procs, runner.Attachments{})
	defer obs.Close()

	// Two parallel rings, offset so they attract and merge.
	sys := ic.RingPair(*sigma, *nTheta, *nCore)
	fmt.Printf("initial particles: %d (paper run: 57,000)\n", sys.Len())

	// Each rank owns a slab of particles; the shared hotengine pipeline
	// supplies the decomposition, branch exchange and push, and the
	// remesh is a collective of every rank.
	plan := runner.Plan{
		NP: *procs, Steps: *steps, DT: *dt, System: sys,
		Physics: runner.Vortex{Sigma: *sigma, Theta: *theta},
	}
	if *remeshEvery > 0 {
		plan.OnStep = func(rank, s int, e runner.Engine, _ diag.Counters) {
			if s >= 0 && (s+1)%*remeshEvery == 0 {
				before, after := e.(*vortex.ParallelEngine).Remesh(*sigma/2, 1e-4)
				if rank == 0 {
					fmt.Printf("step %3d: remesh %d -> %d particles\n", s, before, after)
				}
			}
		}
	}
	res := obs.Run(plan)
	sys, total, wall := res.Merged(), res.Counters, res.Wall.Seconds()
	cliutil.PrintPhases("rank 0 phase breakdown:", res.Ranks[0])
	c := vortex.Centroid(sys.Pos, sys.Alpha)
	i := vortex.LinearImpulse(sys.Pos, sys.Alpha)
	fmt.Printf("final state: centroid z=%.3f, impulse=(%.3f,%.3f,%.3f)\n", c.Z, i.X, i.Y, i.Z)
	fmt.Printf("final particles: %d (paper ended at 360,000)\n", sys.Len())
	fmt.Printf("vortex interactions: %d, flops: %d\n", total.VortexPP, total.Flops())
	fmt.Printf("host: %.2fs, %.1f Mflops-equivalent\n", wall, float64(total.Flops())/wall/1e6)
	est := perfmodel.Hyglac.Model(total.Flops(), perfmodel.RegimeTreeClustered, msg.PhaseTraffic{})
	fmt.Printf("modeled on %s: %s (paper sustained ~950 Mflops over 20 h)\n",
		perfmodel.Hyglac.Name, est)
}
