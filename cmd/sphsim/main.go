// Command sphsim demonstrates smoothed particle hydrodynamics on the
// treecode (the paper: "Smoothed Particle Hydrodynamics is implemented
// with 3000 lines" atop the same library): a self-gravitating gas
// sphere evolves with gravity plus pressure, next to a pressureless
// control run. Pressure support slows the central collapse -- the
// qualitative physics an SPH+gravity code must show.
package main

import (
	"flag"
	"fmt"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/runner"
	"repro/internal/sph"
	"repro/internal/vec"
)

func main() {
	n := flag.Int("n", 4000, "gas particles")
	steps := flag.Int("steps", 150, "timesteps")
	dt := flag.Float64("dt", 4e-3, "timestep")
	cs := flag.Float64("cs", runner.GasCS, "isothermal sound speed of the gas run")
	procs := flag.Int("procs", 1, "in-process ranks (>1 runs the distributed engine)")
	obs := cliutil.ObsFlags("sphsim")
	flag.Parse()
	if _, err := (cliutil.Flags{
		N: *n, Procs: *procs, Steps: *steps,
	}).Validate(); err != nil {
		cliutil.Fail("sphsim", err)
	}
	obs.DistributedOnly(*procs)
	// Only the gas run is instrumented: it is the physics of interest;
	// the pressureless control is a reference computation.
	obs.Start(*procs, runner.Attachments{})
	defer obs.Close()

	fmt.Printf("N = %d gas particles, %d steps of dt = %g", *n, *steps, *dt)
	if *procs > 1 {
		fmt.Printf(" on %d ranks", *procs)
	}
	fmt.Printf("\n\n")
	var gas, control *core.System
	var ctrGas, ctrCtl diag.Counters
	if *procs > 1 {
		// Both runs start from the one gas sphere; the runner copies
		// each rank's slab out of it.
		plan := runner.Plan{
			NP: *procs, Steps: *steps, DT: *dt,
			System: ic.GasSphere(*n, 99), Physics: runner.GasSphere(*cs),
		}
		res := obs.Run(plan)
		cliutil.PrintPhases(fmt.Sprintf("rank 0 phase breakdown (cs=%.2f):", *cs), res.Ranks[0])
		gas, ctrGas = res.Merged(), res.Counters

		// The control disables viscosity along with the sound speed,
		// which zeroes the SPH acceleration exactly.
		cold := runner.GasSphere(0)
		cold.Params.AlphaVisc, cold.Params.BetaVisc = 0, 0
		plan.Physics = cold
		res, err := runner.Run(plan, runner.Attachments{})
		if err != nil {
			obs.Abort(err)
		}
		cliutil.PrintPhases("rank 0 phase breakdown (cs=0.00):", res.Ranks[0])
		control, ctrCtl = res.Merged(), res.Counters
	} else {
		gas, ctrGas = serialRun(*n, *steps, *dt, *cs)
		control, ctrCtl = serialRun(*n, *steps, *dt, 0)
	}

	fGas := centralMassFraction(gas)
	fCtl := centralMassFraction(control)
	fmt.Println("mass fraction within r < 0.1 of the center after the run:")
	fmt.Printf("  with pressure (cs=%.2f): %.4f\n", *cs, fGas)
	fmt.Printf("  pressureless control   : %.4f\n", fCtl)
	if fCtl > fGas {
		fmt.Println("  -> pressure support slowed the collapse, as it must")
	}
	fmt.Printf("\nwork: gas run %d SPH pairs + %d gravity interactions (%d flops total)\n",
		ctrGas.SPHPairs, ctrGas.Interactions(), ctrGas.Flops())
	fmt.Printf("      control  %d gravity interactions\n", ctrCtl.Interactions())
}

// serialRun evolves a cold uniform gas sphere under gravity plus
// isothermal pressure (cs = 0 disables pressure). Both force
// evaluations share one tree build per step.
func serialRun(n, steps int, dt, cs float64) (*core.System, diag.Counters) {
	sys := ic.GasSphere(n, 99)
	g := runner.GasSphere(cs)
	var total diag.Counters

	forces := func(s *core.System) {
		// sph.Step sorts, builds the tree, fills Rho and the pressure
		// acceleration in Acc (zero work when cs == 0 still computes
		// density; harmless for the control).
		tr, ctr := sph.Step(s, &g.Params, 16)
		total.Add(ctr)
		pressure := append(s.Acc[:0:0], s.Acc...)
		if cs == 0 {
			for i := range pressure {
				pressure[i] = vec.V3{}
			}
		}
		gctr := tr.Gravity(g.Eps2)
		total.Add(gctr)
		for i := range s.Acc {
			s.Acc[i] = s.Acc[i].Add(pressure[i])
		}
	}
	forces(sys)
	integrate.Leapfrog(sys, forces, dt, steps)
	return sys, total
}

// centralMassFraction returns the mass fraction within 0.1 of the
// center of mass.
func centralMassFraction(s *core.System) float64 {
	c := s.CenterOfMass()
	var m float64
	for i := 0; i < s.Len(); i++ {
		if s.Pos[i].Sub(c).Norm() < 0.1 {
			m += s.Mass[i]
		}
	}
	return m / s.TotalMass()
}
