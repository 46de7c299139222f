// Package parallel is the distributed gravitational N-body engine:
// the paper's parallel treecode instantiated on the shared HOT
// pipeline (internal/hotengine). The pipeline owns the four phases --
// work-weighted domain decomposition, local tree build plus branch
// exchange, deferred-group traversal, batched request rounds -- and
// this package supplies only what is gravitational about them: the
// per-cell payload is empty (the geometric multipole every cell
// carries IS the gravity moment), leaf replies carry position and
// mass columns, and each completed group walk is evaluated with the
// batched SoA kernels (grav.EvalPP/EvalM2P/EvalSelf) through
// tree.Walker.
package parallel

import (
	"math"

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
	// MaxRounds bounds the request/reply rounds per evaluation as a
	// deadlock backstop; 0 means the default (64).
	MaxRounds int
	// AdaptTol, when positive and the MAC is Salmon-Warren, rescales
	// MAC.AccelTol to AdaptTol times the RMS acceleration after every
	// evaluation -- the production treecode's way of keeping the
	// *relative* force error fixed as clustering raises the typical
	// acceleration (a collective; all ranks update identically).
	AdaptTol float64
}

// Leaf is the gravity leaf payload of a pushed or requested cell:
// position and mass columns, aliasing the owning rank's storage.
type Leaf struct {
	Pos  []vec.V3
	Mass []float64
}

// Engine holds one rank's state across timesteps. The embedded
// hotengine.Engine exposes the pipeline state (Sys, Domain, Splits,
// Local, Counters, Timer, Rounds, RemoteCells).
type Engine struct {
	*hotengine.Engine[hotengine.None, Leaf]
	Cfg Config

	// Stepper drives Step's time integration through the shared
	// integrate core. New wires it to this engine (uniform stepping by
	// default); drivers opt into block timesteps by setting
	// Stepper.Scheme, Eta and Eps before the first Step.
	Stepper integrate.Stepper

	phys *physics
	// walker holds the interaction list of the group being walked and
	// evaluated.
	walker tree.Walker
}

// physics is the gravity instantiation of hotengine.Physics: no
// per-cell payload beyond the multipole, leaf bodies are (pos, mass).
type physics struct {
	e *Engine

	impPos  []vec.V3
	impMass []float64
}

func (p *physics) Prepare(sys *core.System) {}
func (p *physics) PostBuild(t *tree.Tree)   {}

func (p *physics) Extra(c *tree.Cell) hotengine.None                 { return hotengine.None{} }
func (p *physics) CombineExtra(acc, _ hotengine.None) hotengine.None { return acc }

func (p *physics) PackLeaf(c *tree.Cell) Leaf {
	pos, mass := p.e.Local.LeafBodies(c)
	return Leaf{Pos: pos, Mass: mass}
}

func (p *physics) ImportLeaf(n int32, b Leaf) int32 {
	start := int32(len(p.impPos))
	p.impPos = append(p.impPos, b.Pos...)
	p.impMass = append(p.impMass, b.Mass...)
	return start
}

func (p *physics) ResetImports() {
	p.impPos = p.impPos[:0]
	p.impMass = p.impMass[:0]
}

// New creates an engine for this rank's share of the bodies. The
// system must have dynamics enabled.
func New(c *msg.Comm, sys *core.System, cfg Config) *Engine {
	if cfg.Bucket <= 0 {
		cfg.Bucket = tree.DefaultBucketSize
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 64
	}
	sys.EnableDynamics()
	e := &Engine{Cfg: cfg}
	e.phys = &physics{e: e}
	e.Engine = hotengine.New[hotengine.None, Leaf](c, sys, e.phys, hotengine.Config{
		MAC: cfg.MAC, Bucket: cfg.Bucket, MaxRounds: cfg.MaxRounds,
	})
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

// visitor is the gravity side of the pipeline's traversal
// (hotengine.Visitor): cells are opened by the MAC against the group's
// bounding sphere, and the engine's tree.Walker collects the
// interaction list.
type visitor struct{ e *Engine }

func (v *visitor) Begin(gk keys.Key, _ *tree.Cell) { v.e.walker.Begin(gk) }

func (v *visitor) Sphere(g *tree.Cell) (vec.V3, float64) {
	return tree.GroupSphere(v.e.Sys.Pos[g.First : g.First+g.N])
}

func (v *visitor) MAC() bool { return true }

func (v *visitor) TestBound(c *tree.Cell, b *tree.Bound) tree.Action { return tree.ClassifyBound(c, b) }

func (v *visitor) Cells(cells []*tree.Cell, _ []hotengine.None) { v.e.walker.TakeCells(cells) }

func (v *visitor) Leaf(c *tree.Cell) {
	e := v.e
	if c.First >= 0 {
		v.e.walker.TakeLeaf(c, e.Sys.Pos[c.First:c.First+c.N], e.Sys.Mass[c.First:c.First+c.N])
		return
	}
	i := -(c.First + 1)
	v.e.walker.TakeLeaf(c, e.phys.impPos[i:i+c.N], e.phys.impMass[i:i+c.N])
}

// ComputeForces runs one full parallel force evaluation: decompose,
// build, exchange branches, walk with batched requests. On return
// Sys.Acc and Sys.Pot hold the forces on the (possibly redistributed)
// local bodies.
func (e *Engine) ComputeForces() diag.Counters {
	return e.computeForces(0)
}

// ComputeForcesActive is the partial evaluation of block timesteps:
// only groups holding a body on rung minRung or finer are walked and
// evaluated (their whole group, so the kernels run unchanged), the
// decomposition takes the incremental fast path (hotengine.ExchangeFor
// with incremental set), and the MAC adaptation is frozen --
// AdaptTol rescales only at full evaluations, so the opening criterion
// is constant across a big step. minRung <= 0 is exactly
// ComputeForces. Collective at any minRung: every rank walks, serves
// requests and enters the same rounds even with no active groups.
func (e *Engine) ComputeForcesActive(minRung int) diag.Counters {
	return e.computeForces(minRung)
}

func (e *Engine) computeForces(minRung int) diag.Counters {
	start := e.Counters

	// AdaptTol may have rescaled the MAC after the previous
	// evaluation; the pipeline builds trees with its own copy.
	e.Engine.Cfg.MAC = e.Cfg.MAC
	walk := &visitor{e: e}
	// The partial evaluation's active set, nil for all groups. It reads
	// e.Sys when called: the exchange, which needs it for the bound it
	// publishes with the branches, has replaced the bodies by then.
	var active func(g *tree.Cell) bool
	if minRung > 0 {
		active = func(g *tree.Cell) bool {
			return tree.GroupActive(e.Sys, int(g.First), int(g.First+g.N), minRung)
		}
	}
	e.ExchangeFor(walk, active, minRung > 0)

	sys := e.Sys
	// The walk builds the group's interaction list; eval runs the
	// kernels from it. The walk touches no PP/PC counters, so the
	// per-body work weight is the eval-local delta.
	eval := func(gk keys.Key, g *tree.Cell, ctr *diag.Counters) {
		lo, hi := g.First, g.First+g.N
		before := ctr.PP + ctr.PC
		e.walker.Evaluate(sys.Pos[lo:hi], sys.Mass[lo:hi], sys.Acc[lo:hi], sys.Pot[lo:hi], e.Cfg.Eps2, e.Cfg.MAC.Quad, ctr)
		if g.N > 0 {
			per := float64(ctr.PP+ctr.PC-before) / float64(g.N)
			for i := lo; i < hi; i++ {
				sys.Work[i] = per
			}
		}
	}
	e.WalkGroupsIf("walk", active, walk, eval)

	if minRung <= 0 && e.Cfg.AdaptTol > 0 && e.Cfg.MAC.Kind == grav.MACSalmonWarren {
		if rms := e.RMSAccel(); rms > 0 {
			e.Cfg.MAC.AccelTol = e.Cfg.AdaptTol * rms
		}
	}

	return e.Counters.Sub(start)
}

// RMSAccel returns the global root-mean-square acceleration, used to
// scale the absolute-error MAC between steps (a collective).
func (e *Engine) RMSAccel() float64 {
	type sums struct {
		S float64
		N int64
	}
	var loc sums
	for i := range e.Sys.Acc {
		loc.S += e.Sys.Acc[i].Norm2()
		loc.N++
	}
	g := msg.Allreduce(e.C, loc, func(a, b sums) sums { return sums{a.S + b.S, a.N + b.N} }, 16)
	if g.N == 0 {
		return 0
	}
	return math.Sqrt(g.S / float64(g.N))
}
