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

// Leaf is the gravity leaf payload of a pushed or requested cell:
// position and mass columns, slices of the owner's snapshot.
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

	snap    Leaf
	impPos  []vec.V3
	impMass []float64
}

func (p *physics) Prepare(sys *core.System) {}
func (p *physics) PostBuild(t *tree.Tree)   {}

func (p *physics) Extra(c *tree.Cell) hotengine.None                 { return hotengine.None{} }
func (p *physics) CombineExtra(acc, _ hotengine.None) hotengine.None { return acc }

func (p *physics) PackLeaf(c *tree.Cell) Leaf {
	lo, hi := c.First, c.First+c.N
	return Leaf{Pos: p.snap.Pos[lo:hi], Mass: p.snap.Mass[lo:hi]}
}

func (p *physics) Snapshot() {
	sys := p.e.Sys
	p.snap = Leaf{Pos: append(p.snap.Pos[:0], sys.Pos...), Mass: append(p.snap.Mass[:0], sys.Mass...)}
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
	sys.EnableDynamics()
	e := &Engine{Cfg: cfg}
	e.phys = &physics{e: e}
	e.Engine = hotengine.New[hotengine.None, Leaf](c, sys, e.phys, hotengine.Config{
		MAC: cfg.MAC, Bucket: cfg.Bucket,
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

func (v *visitor) Begin(gk keys.Key, g *tree.Cell) {
	c, _ := v.Sphere(g)
	v.e.walker.Begin(gk, c)
}

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

// computeForces at minRung > 0 is the partial evaluation of block
// timesteps: only groups holding a body on rung minRung or finer are
// walked and evaluated (their whole group, so the kernels run
// unchanged), and the decomposition takes the incremental fast path
// (hotengine.ExchangeFor with incremental set). minRung <= 0 is the
// full evaluation. Collective at any minRung: every rank walks, serves
// requests and enters the same rounds even with no active groups.
func (e *Engine) computeForces(minRung int) diag.Counters {
	start := e.Counters

	walk := &visitor{e: e}
	// The partial evaluation's active set, nil for all groups. It reads
	// e.Sys when called: the exchange, which needs it for the bound it
	// publishes with the branches, has replaced the bodies by then.
	var active func(g *tree.Cell) bool
	if minRung > 0 {
		active = func(g *tree.Cell) bool {
			return groupActive(e.Sys, int(g.First), int(g.First+g.N), minRung)
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
