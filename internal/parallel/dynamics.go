package parallel

import (
	"slices"

	"repro/internal/diag"
	"repro/internal/integrate"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/vec"
)

// Kick advances velocities by dt using the current accelerations.
func (e *Engine) Kick(dt float64) { integrate.Kick(e.Sys, dt) }

// Drift advances positions by dt using the current velocities.
func (e *Engine) Drift(dt float64) { integrate.Drift(e.Sys, dt) }

// Step advances one global step through the engine's Stepper: the
// kick-drift-kick leapfrog by default, hierarchical block sub-steps
// when the driver configured Stepper.Scheme (a collective either
// way). The engine's accelerations must be current (call
// ComputeForces once before the first Step); they are current again
// on return. Returns this step's interaction-counter delta, summed
// over however many (partial) evaluations the step ran.
func (e *Engine) Step(dt float64) diag.Counters {
	start := e.Counters
	e.Stepper.Step(dt)
	return e.Counters.Sub(start)
}

// Record extends the pipeline's rank record with gravity's invariants
// and the scheduler accounting: the energy and momentum contributions
// are this rank's partial sums (no collective -- a reader adds the
// ranks up), Stepping the stepper's cumulative accounting, Rungs the
// current occupancy. Call from the rank's own goroutine after an
// evaluation, where Acc/Pot are current.
func (e *Engine) Record() metrics.RankInput {
	in := e.Engine.Record()
	in.HasEnergy = true
	for i := range e.Sys.Vel {
		in.Kinetic += 0.5 * e.Sys.Mass[i] * e.Sys.Vel[i].Norm2()
		in.Potential += 0.5 * e.Sys.Mass[i] * e.Sys.Pot[i]
		in.Momentum = in.Momentum.Add(e.Sys.Vel[i].Scale(e.Sys.Mass[i]))
	}
	in.Stepping = metrics.Stepping{Mode: "uniform", Eta: e.Stepper.Eta, Stats: e.Stepper.Stats}
	if e.Stepper.Scheme == integrate.Block {
		in.Stepping.Mode = "block"
	}
	in.Stepping.Occupancy = slices.Clone(in.Stepping.Occupancy)
	integrate.CountRungs(e.Sys, in.Rungs[:])
	return in
}

// Energy returns the global kinetic and potential energy (collective;
// potential requires a preceding ComputeForces).
func (e *Engine) Energy() (kin, pot float64) {
	type en struct{ K, P float64 }
	var loc en
	for i := range e.Sys.Vel {
		loc.K += 0.5 * e.Sys.Mass[i] * e.Sys.Vel[i].Norm2()
		loc.P += 0.5 * e.Sys.Mass[i] * e.Sys.Pot[i]
	}
	g := msg.Allreduce(e.C, loc, func(a, b en) en { return en{a.K + b.K, a.P + b.P} }, 16)
	return g.K, g.P
}

// Momentum returns the global total momentum (collective).
func (e *Engine) Momentum() vec.V3 {
	var loc vec.V3
	for i := range e.Sys.Vel {
		loc = loc.Add(e.Sys.Vel[i].Scale(e.Sys.Mass[i]))
	}
	return msg.Allreduce(e.C, loc, func(a, b vec.V3) vec.V3 { return a.Add(b) }, 24)
}

// GlobalLen returns the global body count (collective).
func (e *Engine) GlobalLen() int64 {
	return msg.Allreduce(e.C, int64(e.Sys.Len()), msg.SumI64, 8)
}
