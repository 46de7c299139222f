// Package parallel is the distributed gravitational N-body engine:
// the paper's parallel treecode instantiated on the shared HOT
// pipeline (internal/hotengine). The pipeline owns the four phases --
// work-weighted domain decomposition, local tree build plus branch
// exchange, each group's MAC walk, test and all, batched request rounds
// -- and this package supplies only what is gravitational about them:
// the per-cell payload is empty (the geometric multipole every cell
// carries IS the gravity moment), a leaf carries position and mass
// columns, and Pass, the one gravity visitor (SPH's self-gravity runs
// it too), evaluates each group's list with the batched SoA kernels
// (grav.EvalPP/EvalM2P/EvalSelf) through tree.Walker.
package parallel

import (
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/hotengine"
	"repro/internal/integrate"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Config controls the parallel force evaluation.
type Config struct {
	MAC    grav.MACParams
	Bucket int
	Eps2   float64
}

// Engine holds one rank's state across timesteps. The embedded
// hotengine.Engine exposes the pipeline state (Sys, Domain, Splits,
// Local, Counters, Timer, Rounds, RemoteCells).
type Engine struct {
	*hotengine.Engine[hotengine.None]
	Cfg Config

	// Stepper drives Step's time integration through the shared
	// integrate core. New wires it to this engine (uniform stepping by
	// default); drivers opt into block timesteps by setting
	// Stepper.Scheme, Eta and Eps before the first Step.
	Stepper integrate.Stepper

	pass *Pass
}

// physics is the gravity instantiation of hotengine.Physics: no
// per-cell payload beyond the multipole, a leaf's bodies are (pos, mass).
type physics struct{}

func (physics) Prepare(sys *core.System) {}
func (physics) PostBuild(t *tree.Tree)   {}

func (physics) Extra(c *tree.Cell) hotengine.None                 { return hotengine.None{} }
func (physics) CombineExtra(acc, _ hotengine.None) hotengine.None { return acc }

func (physics) Columns(sys *core.System) core.System {
	return core.System{Pos: sys.Pos, Mass: sys.Mass}
}

// New creates an engine for this rank's share of the bodies. The
// system must have dynamics enabled.
func New(c *msg.Comm, sys *core.System, cfg Config) *Engine {
	if cfg.Bucket <= 0 {
		cfg.Bucket = tree.DefaultBucketSize
	}
	sys.EnableDynamics()
	e := &Engine{Cfg: cfg}
	e.Engine = hotengine.New[hotengine.None](c, sys, physics{}, hotengine.Config{
		MAC: cfg.MAC, Bucket: cfg.Bucket,
	})
	e.pass = NewPass(e.Engine, cfg.Eps2)
	e.Stepper.B = engineBodies{e}
	return e
}

// engineBodies adapts the engine to integrate.Bodies: forces come
// from the (possibly partial) parallel evaluation, which may
// redistribute bodies, and the rung maximum is a world-wide allreduce
// so every rank runs the same sub-step schedule.
type engineBodies struct{ e *Engine }

func (b engineBodies) Sys() *core.System  { return b.e.Sys }
func (b engineBodies) Forces(minRung int) { b.e.computeForces(minRung) }
func (b engineBodies) MaxRung(local int) int {
	return msg.Allreduce(b.e.C, local, msg.MaxI, 8)
}

// Pass is the gravity pass of an engine's MAC walk, written once (this
// package's and SPH's self-gravity): as the walk's hotengine.Visitor it
// gathers each group's list in a tree.Walker, and Eval, its EvalFn, runs
// the batched kernels over the list. It reads a leaf's positions and
// masses, so it serves every engine whose leaves carry them.
type Pass struct {
	e    *hotengine.Engine[hotengine.None]
	eps2 float64
	w    tree.Walker
}

// NewPass returns the gravity pass of engine e, softened by eps2.
func NewPass(e *hotengine.Engine[hotengine.None], eps2 float64) *Pass {
	return &Pass{e: e, eps2: eps2}
}

func (p *Pass) Begin(gk keys.Key, centre vec.V3) { p.w.Begin(gk, centre) }

func (p *Pass) Cells(cells []*tree.Cell, _ []hotengine.None) { p.w.TakeCells(cells) }

func (p *Pass) Leaves(cells []*tree.Cell) { p.w.TakeLeaves(cells, p) }

// LeafBodies returns the positions and masses of leaf c of the engine's
// LET (tree.Bodies).
func (p *Pass) LeafBodies(c *tree.Cell) ([]vec.V3, []float64) {
	b, lo, hi := p.e.LeafBodies(c)
	return b.Pos[lo:hi], b.Mass[lo:hi]
}

// Eval evaluates group g's list into its Acc and Pot (overwritten), and
// adds the group's interactions per body to its Work.
func (p *Pass) Eval(_ keys.Key, g *tree.Cell, ctr *diag.Counters) {
	sys := p.e.Sys
	lo, hi := g.First, g.First+g.N
	before := ctr.PP + ctr.PC
	p.w.Evaluate(sys.Pos[lo:hi], sys.Mass[lo:hi], sys.Acc[lo:hi], sys.Pot[lo:hi], p.eps2, p.e.Cfg.MAC.Quad, ctr)
	if g.N > 0 {
		per := (ctr.PP + ctr.PC - before) / uint64(g.N)
		for i := lo; i < hi; i++ {
			sys.Work[i] += per
		}
	}
}

// ComputeForces runs one full parallel force evaluation: decompose,
// build, exchange branches, walk with batched requests. On return
// Sys.Acc and Sys.Pot hold the forces on the (possibly redistributed)
// local bodies.
func (e *Engine) ComputeForces() diag.Counters {
	return e.computeForces(0)
}

// computeForces at minRung > 0 is the partial evaluation of block
// timesteps: only groups holding a body on rung minRung or finer are
// walked and evaluated (their whole group, so the kernels run
// unchanged); the decomposition is a full evaluation's. minRung <= 0 is
// the full evaluation. Collective at any minRung: every rank walks,
// serves requests and enters the same rounds even with no active groups.
func (e *Engine) computeForces(minRung int) diag.Counters {
	start := e.Counters

	// The partial evaluation's active set, nil for all groups. It reads
	// e.Sys when called: the exchange, which needs it for the bound it
	// publishes with the branches, has replaced the bodies by then.
	var active func(g *tree.Cell) bool
	if minRung > 0 {
		active = func(g *tree.Cell) bool {
			return groupActive(e.Sys, int(g.First), int(g.First+g.N), minRung)
		}
	}
	e.ExchangeFor(e.pass, active)
	// The pass adds its share to Work, here from zero.
	e.WalkGroupsIf("walk", active, e.pass, func(gk keys.Key, g *tree.Cell, ctr *diag.Counters) {
		clear(e.Sys.Work[g.First : g.First+g.N])
		e.pass.Eval(gk, g, ctr)
	})
	return e.Counters.Sub(start)
}

// groupActive reports whether the body range [lo,hi) of sys holds any
// body on rung minRung or finer. Activity is group-granular: a group,
// a sink cell of up to 64 bodies, is evaluated whole for one active
// body (the inactive members' Acc is overwritten with values they never
// consume -- their own kicks read Acc only at their own sub-step
// boundaries, which are full evaluations for them), so the interaction
// kernels, including the self-interaction, run unchanged; the cost is
// measured in EXPERIMENTS.md "Sink cells (PR 23)". Inactive bodies
// still contribute as sources through the tree, rebuilt from their
// drifted positions. A nil Rung column means rung zero everywhere.
func groupActive(sys *core.System, lo, hi, minRung int) bool {
	if minRung <= 0 || sys.Rung == nil {
		return true
	}
	for _, r := range sys.Rung[lo:hi] {
		if int(r) >= minRung {
			return true
		}
	}
	return false
}
