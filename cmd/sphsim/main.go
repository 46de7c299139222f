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
	"repro/internal/ic"
	"repro/internal/runner"
)

func main() {
	n := flag.Int("n", 4000, "gas particles")
	steps := flag.Int("steps", 150, "timesteps")
	dt := flag.Float64("dt", 4e-3, "timestep")
	cs := flag.Float64("cs", runner.GasCS, "isothermal sound speed of the gas run")
	procs := flag.Int("procs", 1, "in-process ranks")
	obs := cliutil.ObsFlags("sphsim")
	flag.Parse()
	if _, err := (cliutil.Flags{
		N: *n, Procs: *procs, Steps: *steps,
	}).Validate(); err != nil {
		cliutil.Fail("sphsim", err)
	}
	// Only the gas run is instrumented: it is the physics of interest;
	// the pressureless control is a reference computation.
	obs.Start(*procs, runner.Attachments{})
	defer obs.Close()

	fmt.Printf("N = %d gas particles, %d steps of dt = %g on %d ranks\n\n", *n, *steps, *dt, *procs)
	// Both runs start from the one gas sphere; the runner copies each
	// rank's slab out of it.
	plan := runner.Plan{
		NP: *procs, Steps: *steps, DT: *dt,
		System: ic.GasSphere(*n, 99), Physics: runner.GasSphere(*cs),
	}
	gas := obs.Run(plan)
	cliutil.PrintPhases(fmt.Sprintf("rank 0 phase breakdown (cs=%.2f):", *cs), gas.Ranks[0])

	// The control disables viscosity along with the sound speed, which
	// zeroes the SPH acceleration exactly.
	cold := runner.GasSphere(0)
	cold.Params.AlphaVisc, cold.Params.BetaVisc = 0, 0
	plan.Physics = cold
	control, err := runner.Run(plan, runner.Attachments{})
	if err != nil {
		obs.Abort(err)
	}
	cliutil.PrintPhases("rank 0 phase breakdown (cs=0.00):", control.Ranks[0])

	fGas := centralMassFraction(gas.Merged())
	fCtl := centralMassFraction(control.Merged())
	fmt.Println("mass fraction within r < 0.1 of the center after the run:")
	fmt.Printf("  with pressure (cs=%.2f): %.4f\n", *cs, fGas)
	fmt.Printf("  pressureless control   : %.4f\n", fCtl)
	if fCtl > fGas {
		fmt.Println("  -> pressure support slowed the collapse, as it must")
	}
	fmt.Printf("\nwork: gas run %d SPH pairs + %d gravity interactions (%d flops total)\n",
		gas.Counters.SPHPairs, gas.Counters.Interactions(), gas.Counters.Flops())
	fmt.Printf("      control  %d gravity interactions\n", control.Counters.Interactions())
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
