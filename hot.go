// Package hot is the public face of the Hashed Oct-Tree library: a
// reproduction of the treecode of Warren & Salmon et al. ("Pentium
// Pro Inside", SC'97). It solves gravitational (and, through the
// subpackages, vortex-dynamical and SPH) N-body problems in
// O(N log N) time, either serially or on a simulated message-passing
// machine whose processors are goroutines.
//
// Quick start:
//
//	bodies := hot.PlummerSphere(10000, 1)
//	sim, _ := hot.NewSerial(bodies, hot.Defaults())
//	for i := 0; i < 100; i++ {
//	    info := sim.Step(1e-3)
//	    fmt.Println(info.Gflops(), "Gflops-equivalent work")
//	}
//
// The parallel entry point runs the full distributed algorithm --
// work-weighted Morton decomposition, branch exchange, a push of every
// cell a peer's walk will open (batched requests only as the safety
// net) -- on any number of simulated processors:
//
//	result, err := hot.RunParallel(hot.ParallelConfig{
//	    Procs: 16, Steps: 10, Dt: 1e-3, Config: hot.Defaults(),
//	}, bodies, nil)
package hot

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/direct"
	"repro/internal/grav"
	"repro/internal/integrate"
	"repro/internal/keys"
	"repro/internal/parallel"
	"repro/internal/runner"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Body is one particle.
type Body struct {
	Pos, Vel [3]float64
	Mass     float64
}

// MACKind selects the multipole acceptance criterion.
type MACKind int

const (
	// BarnesHut opens cells by the size/distance ratio Theta.
	BarnesHut MACKind = iota
	// SalmonWarren opens cells by the analytic worst-case force
	// error bound AccelTol (the paper's production criterion).
	SalmonWarren
)

// Config controls force accuracy and tree shape.
type Config struct {
	MAC MACKind
	// Theta is the Barnes-Hut opening angle (used when MAC ==
	// BarnesHut); typical 0.5-1.0.
	Theta float64
	// AccelTol is the Salmon-Warren absolute acceleration error
	// bound per accepted cell (used when MAC == SalmonWarren).
	AccelTol float64
	// Quadrupole enables quadrupole-order expansions (the paper's
	// setting); monopole-only when false.
	Quadrupole bool
	// Eps is the Plummer softening length.
	Eps float64
	// Bucket is the tree leaf capacity (0 = default).
	Bucket int
}

// Defaults returns the paper-like configuration for unit-scale
// problems (total mass ~1, size ~1).
func Defaults() Config {
	return Config{
		MAC:        SalmonWarren,
		Theta:      0.7,
		AccelTol:   1e-4,
		Quadrupole: true,
		Eps:        1e-3,
		Bucket:     tree.DefaultBucketSize,
	}
}

func (c Config) macParams() grav.MACParams {
	p := grav.MACParams{Theta: c.Theta, AccelTol: c.AccelTol, Quad: c.Quadrupole}
	switch c.MAC {
	case BarnesHut:
		p.Kind = grav.MACBarnesHut
	case SalmonWarren:
		p.Kind = grav.MACSalmonWarren
	default:
		p.Kind = grav.MACSalmonWarren
	}
	return p
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MAC == BarnesHut && (c.Theta <= 0 || c.Theta > 2) {
		return fmt.Errorf("hot: Theta %v out of range (0, 2]", c.Theta)
	}
	if c.MAC == SalmonWarren && c.AccelTol <= 0 {
		return fmt.Errorf("hot: AccelTol must be positive, got %v", c.AccelTol)
	}
	if c.Eps < 0 {
		return fmt.Errorf("hot: negative softening %v", c.Eps)
	}
	return nil
}

// StepInfo reports one force evaluation / timestep.
type StepInfo struct {
	// Interactions is the number of body-body plus body-cell
	// interactions, the paper's fundamental work metric.
	Interactions uint64
	// Flops charges 38 operations per interaction plus quadrupole
	// surcharges, exactly as the paper counts.
	Flops uint64
	// Cells is the number of tree cells built.
	Cells uint64
	// Kinetic and Potential are the system energies after the step
	// (Potential from the softened tree potential).
	Kinetic, Potential float64
}

// toSystem converts the public body slice.
func toSystem(bodies []Body) *core.System {
	sys := core.New(len(bodies))
	sys.EnableDynamics()
	for i, b := range bodies {
		sys.Pos[i] = vec.V3{X: b.Pos[0], Y: b.Pos[1], Z: b.Pos[2]}
		sys.Vel[i] = vec.V3{X: b.Vel[0], Y: b.Vel[1], Z: b.Vel[2]}
		sys.Mass[i] = b.Mass
	}
	return sys
}

func fromSystem(sys *core.System) []Body {
	out := make([]Body, sys.Len())
	for i := range out {
		out[sys.ID[i]] = Body{
			Pos:  [3]float64{sys.Pos[i].X, sys.Pos[i].Y, sys.Pos[i].Z},
			Vel:  [3]float64{sys.Vel[i].X, sys.Vel[i].Y, sys.Vel[i].Z},
			Mass: sys.Mass[i],
		}
	}
	return out
}

// Serial is a single-process simulation with a stepwise API.
type Serial struct {
	cfg Config
	sys *core.System
	ctr diag.Counters
	acc diag.Counters
	st  integrate.Stepper
}

// NewSerial builds a serial simulation and computes initial forces.
func NewSerial(bodies []Body, cfg Config) (*Serial, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(bodies) == 0 {
		return nil, fmt.Errorf("hot: no bodies")
	}
	s := &Serial{cfg: cfg, sys: toSystem(bodies)}
	s.st.B = &integrate.FuncBodies{
		System: s.sys,
		Force:  func(_ *core.System, minRung int) { s.forcesActive(minRung) },
	}
	s.forces()
	return s, nil
}

// EnableBlockSteps switches Step to hierarchical block timesteps:
// each body sub-steps the global dt in 2^r pieces with r chosen from
// dt_i = eta*sqrt(Eps/|a_i|), and only the walk groups (sink cells of
// up to 64 bodies) holding an active body are re-evaluated at each
// sub-step. Typical eta is
// 0.01-0.05 for unit-scale problems. Call before the first Step (or
// at any step boundary).
func (s *Serial) EnableBlockSteps(eta float64) {
	s.st.Scheme = integrate.Block
	s.st.Eta = eta
	s.st.Eps = s.cfg.Eps
}

// StepperStats returns the accumulated block-scheduler accounting
// (sub-steps, full/partial evaluations, active-sink fractions).
func (s *Serial) StepperStats() integrate.Stats { return s.st.Stats }

func (s *Serial) forces() {
	s.acc = diag.Counters{}
	s.forcesActive(0)
	s.ctr = s.acc
}

// forcesActive rebuilds the tree from the current (drifted) positions
// and evaluates forces for the groups active at minRung (everything
// when minRung <= 0), accumulating this step's counters.
func (s *Serial) forcesActive(minRung int) {
	d := keys.NewDomain(s.sys.Pos)
	s.sys.AssignKeys(d)
	s.sys.SortByKey()
	tr := tree.Build(s.sys, d, s.cfg.macParams(), s.cfg.Bucket)
	ctr := tr.GravityActive(s.cfg.Eps*s.cfg.Eps, minRung)
	ctr.CellsBuilt = uint64(tr.NCells())
	s.acc.Add(ctr)
}

// Step advances one global step through the integrate core: the
// kick-drift-kick leapfrog by default, hierarchical sub-steps after
// EnableBlockSteps. StepInfo aggregates every (partial) force
// evaluation the step ran.
func (s *Serial) Step(dt float64) StepInfo {
	s.acc = diag.Counters{}
	s.st.Step(dt)
	s.ctr = s.acc
	return s.info()
}

func (s *Serial) info() StepInfo {
	kin, pot, _ := integrate.Energy(s.sys)
	return StepInfo{
		Interactions: s.ctr.Interactions(),
		Flops:        s.ctr.Flops(),
		Cells:        s.ctr.CellsBuilt,
		Kinetic:      kin,
		Potential:    pot,
	}
}

// Info returns the statistics of the last force evaluation.
func (s *Serial) Info() StepInfo { return s.info() }

// Bodies returns the current state, indexed as originally passed.
func (s *Serial) Bodies() []Body { return fromSystem(s.sys) }

// N returns the body count.
func (s *Serial) N() int { return s.sys.Len() }

// ParallelConfig configures a simulated-parallel run.
type ParallelConfig struct {
	Config
	// Procs is the number of simulated processors (goroutines).
	Procs int
	// Steps and Dt drive the leapfrog integration; Steps = 0 computes
	// forces once without advancing.
	Steps int
	Dt    float64
}

// ParallelResult summarizes a parallel run.
type ParallelResult struct {
	Bodies []Body
	// Counters aggregates interaction counts over all ranks and steps.
	Interactions uint64
	Flops        uint64
	// MaxMsgs/MaxBytes are the bottleneck rank's total traffic.
	MaxMsgs, MaxBytes uint64
	// Rounds is the largest number of request/reply rounds any
	// evaluation needed; RemoteCells the total imported cells.
	Rounds      int
	RemoteCells int
	// Kinetic/Potential are the final energies.
	Kinetic, Potential float64
}

// RunParallel executes the full distributed treecode on cfg.Procs
// simulated processors. onStep, when non-nil, receives per-step info
// (called on rank 0's data, between steps). A failure on any rank,
// a panic in onStep included, is returned as an error wrapping the
// *msg.WorldError; it is not re-raised.
func RunParallel(cfg ParallelConfig, bodies []Body, onStep func(step int, info StepInfo)) (ParallelResult, error) {
	if err := cfg.Validate(); err != nil {
		return ParallelResult{}, err
	}
	if cfg.Procs < 1 {
		return ParallelResult{}, fmt.Errorf("hot: Procs must be >= 1")
	}
	if len(bodies) == 0 {
		return ParallelResult{}, fmt.Errorf("hot: no bodies")
	}
	var res ParallelResult
	run, err := runner.Run(runner.Plan{
		NP: cfg.Procs, Steps: cfg.Steps, DT: cfg.Dt, System: toSystem(bodies),
		Physics: runner.Gravity{MAC: cfg.macParams(), Bucket: cfg.Bucket, Eps2: cfg.Eps * cfg.Eps},
		OnStep: func(rank, step int, e runner.Engine, ctr diag.Counters) {
			if onStep != nil && rank == 0 && step >= 0 {
				onStep(step, StepInfo{
					Interactions: ctr.Interactions(),
					Flops:        ctr.Flops(),
					Cells:        ctr.CellsBuilt,
				})
			}
			if step == cfg.Steps-1 { // a collective: every rank, once, at the end
				kin, pot := e.(*parallel.Engine).Energy()
				if rank == 0 {
					res.Kinetic, res.Potential = kin, pot
				}
			}
		},
	}, runner.Attachments{})
	if err != nil {
		return ParallelResult{}, fmt.Errorf("hot: parallel run failed: %w", err)
	}

	res.Bodies = fromSystemByID(run.Merged(), len(bodies))
	res.Interactions, res.Flops = run.Counters.Interactions(), run.Counters.Flops()
	for _, in := range run.Ranks {
		res.RemoteCells += in.RemoteCells
		res.Rounds = max(res.Rounds, in.Rounds)
	}
	m := run.World.MaxRankTraffic()
	res.MaxMsgs, res.MaxBytes = m.Msgs, m.Bytes
	return res, nil
}

// fromSystemByID reassembles bodies in original order from a
// concatenation of rank-local systems.
func fromSystemByID(sys *core.System, n int) []Body {
	out := make([]Body, n)
	for i := 0; i < sys.Len(); i++ {
		out[sys.ID[i]] = Body{
			Pos:  [3]float64{sys.Pos[i].X, sys.Pos[i].Y, sys.Pos[i].Z},
			Vel:  [3]float64{sys.Vel[i].X, sys.Vel[i].Y, sys.Vel[i].Z},
			Mass: sys.Mass[i],
		}
	}
	return out
}

// DirectForces computes exact softened forces (the O(N^2) reference)
// and returns accelerations indexed like bodies. For benchmarking and
// accuracy studies.
func DirectForces(bodies []Body, eps float64) ([][3]float64, StepInfo) {
	sys := toSystem(bodies)
	ctr := direct.Serial(sys.Pos, sys.Mass, sys.Acc, sys.Pot, eps*eps)
	acc := make([][3]float64, len(bodies))
	for i := range acc {
		acc[i] = [3]float64{sys.Acc[i].X, sys.Acc[i].Y, sys.Acc[i].Z}
	}
	return acc, StepInfo{Interactions: ctr.Interactions(), Flops: ctr.Flops()}
}
