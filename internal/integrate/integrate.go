// Package integrate is the one time-integration core every driver and
// engine steps through: the kick-drift-kick leapfrog (the standard
// N-body integrator, symplectic for fixed steps), its hierarchical
// block-timestep generalization (per-body power-of-two sub-steps
// chosen from an acceleration criterion, see Stepper), and the shared
// kick/drift loops. Serial drivers adapt via Forces/FuncBodies; the
// distributed gravity and SPH engines adapt via the Bodies interface.
// The comoving variant for cosmological runs lives in internal/cosmo.
package integrate

import (
	"repro/internal/core"
	"repro/internal/vec"
)

// Forces computes accelerations (and potentials) for the system; the
// serial tree driver and the direct solver both satisfy it.
type Forces func(sys *core.System)

// Leapfrog advances the system by n uniform kick-drift-kick steps of
// size dt through the stepper core.
//
// Contract: the system's Acc must be current on entry (call forces
// once first); it is current again on exit, and forces runs exactly
// once per step -- the step sequence is Kick(dt/2), Drift(dt),
// forces, Kick(dt/2), nothing more.
func Leapfrog(sys *core.System, forces Forces, dt float64, n int) {
	st := Stepper{B: &FuncBodies{
		System: sys,
		Force:  func(s *core.System, _ int) { forces(s) },
	}}
	for s := 0; s < n; s++ {
		st.Step(dt)
	}
}

// Kick advances velocities by dt with the current accelerations.
func Kick(sys *core.System, dt float64) {
	for i := range sys.Vel {
		sys.Vel[i] = sys.Vel[i].Add(sys.Acc[i].Scale(dt))
	}
}

// Drift advances positions by dt with the current velocities.
func Drift(sys *core.System, dt float64) {
	for i := range sys.Pos {
		sys.Pos[i] = sys.Pos[i].Add(sys.Vel[i].Scale(dt))
	}
}

// Energy returns kinetic, potential and total energy (Pot must be
// current).
func Energy(sys *core.System) (kin, pot, total float64) {
	kin = sys.KineticEnergy()
	pot = sys.PotentialEnergy()
	return kin, pot, kin + pot
}

// AngularMomentum returns the total angular momentum about the origin.
func AngularMomentum(sys *core.System) vec.V3 {
	var l vec.V3
	for i := range sys.Vel {
		l = l.Add(sys.Pos[i].Cross(sys.Vel[i]).Scale(sys.Mass[i]))
	}
	return l
}
