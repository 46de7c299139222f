package runner

import (
	"math"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/integrate"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/parallel"
	"repro/internal/sph"
	"repro/internal/trace"
	"repro/internal/vortex"
)

// Engine is what the three physics adapters share and the step loop
// drives. The value an OnStep hook receives is the concrete engine
// (*parallel.Engine, *sph.ParallelEngine or *vortex.ParallelEngine).
type Engine interface {
	// Observe attaches the rank's tracer (nil: none) before anything
	// runs.
	Observe(*trace.Tracer)
	Step(dt float64) diag.Counters
	// Record describes the rank as of the evaluation just finished; call
	// it from the rank's own goroutine.
	Record() metrics.RankInput
}

// rankEngine is one rank's engine plus the two things the adapters do
// not share a method for: the first evaluation (nil when the physics
// has none), and the Sys field of the embedded hotengine.Engine, whose
// type parameters differ per physics.
type rankEngine struct {
	Engine
	first func() diag.Counters
	sys   **core.System
}

// Physics builds one rank's engine over its slab of the plan's system.
// The implementations are Gravity, SPH and Vortex.
type Physics interface {
	build(c *msg.Comm, local *core.System) rankEngine
}

// Gravity is the gravitational treecode (internal/parallel).
type Gravity struct {
	MAC    grav.MACParams
	Bucket int
	Eps2   float64
	// Eta, when positive, selects hierarchical block timesteps with
	// dt_i = Eta*sqrt(eps/|a_i|); zero is the uniform leapfrog.
	Eta float64
}

func (g Gravity) build(c *msg.Comm, local *core.System) rankEngine {
	e := parallel.New(c, local, parallel.Config{MAC: g.MAC, Bucket: g.Bucket, Eps2: g.Eps2})
	if g.Eta > 0 {
		e.Stepper.Scheme = integrate.Block
		e.Stepper.Eta = g.Eta
		e.Stepper.Eps = math.Sqrt(g.Eps2)
	}
	return rankEngine{Engine: e, first: e.ComputeForces, sys: &e.Sys}
}

// Serial is g's engine over sys as the only rank of a one-rank world,
// built on the caller's goroutine, with the first evaluation's
// counters. At np = 1 no collective sends or waits, so the caller
// steps and evaluates it like any serial object: it is the library's
// serial gravity (hot.Serial, bem's tree sums), the same algorithm as
// every distributed run. The engine owns sys from here on.
func (g Gravity) Serial(sys *core.System) (*parallel.Engine, diag.Counters) {
	e := g.build(msg.NewWorld(1).Comm(0), sys)
	return e.Engine.(*parallel.Engine), e.first()
}

// SPH is smoothed particle hydrodynamics, with self-gravity when
// Gravity is set (internal/sph).
type SPH sph.ParallelConfig

func (s SPH) build(c *msg.Comm, local *core.System) rankEngine {
	e := sph.NewParallel(c, local, sph.ParallelConfig(s))
	return rankEngine{Engine: e, first: e.Eval, sys: &e.Sys}
}

// Vortex is the vortex particle method (internal/vortex). Its RK2 step
// evaluates twice itself, so there is no first evaluation.
type Vortex struct{ Sigma, Theta float64 }

func (v Vortex) build(c *msg.Comm, local *core.System) rankEngine {
	e := vortex.NewParallel(c, local, v.Sigma, v.Theta)
	return rankEngine{Engine: e, sys: &e.Sys}
}

// The two demonstration scenes sphsim, vortexsim and the service's sph
// and vortex jobs share (bodies from ic.GasSphere and ic.RingPair):
// the drivers' flag defaults and the service's fixed values are these.
const (
	GasCS     = 0.8  // isothermal sound speed
	RingSigma = 0.12 // core smoothing radius
	RingTheta = 0.5  // opening angle
	RingCore  = 4    // points across each ring's core
)

// GasSphere is the physics of the self-gravitating isothermal gas
// sphere at sound speed cs, with the standard artificial viscosity.
func GasSphere(cs float64) SPH {
	return SPH{
		Params:  sph.Params{EOS: sph.Isothermal, CS: cs, AlphaVisc: 1, BetaVisc: 2},
		Gravity: true, Eps2: 1e-4,
	}
}
