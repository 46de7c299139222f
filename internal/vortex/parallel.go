package vortex

import (
	"slices"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/hotengine"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
)

// ParallelEngine evaluates the vortex particle method on the
// distributed hashed oct-tree, exactly as the paper ran the two-ring
// fusion across Hyglac's 16 processors: the same decomposition,
// branch exchange and push of locally essential cells as gravity -- now
// literally the same code, the shared pipeline in internal/hotengine
// -- instantiated with vector-valued cell moments (total strength at
// the strength-weighted centroid) and the Biot-Savart / stretching
// kernels. Completed group walks are swept with the batched SoA
// kernels (evalVelMono/evalVelPP, kernel.go): four targets per AVX2
// register on amd64, bit for bit the Go loops that define them and run
// everywhere else. On one rank the evaluation is bit for bit the
// serial tree walk its tests hold it to. Remesh (remesh.go) is the
// collective that grows the particle set.
type ParallelEngine struct {
	*hotengine.Engine[vec.V3]
	Sigma float64
	Theta float64

	list   vList
	tg     vTargets
	walk   visitor
	dAlpha []vec.V3
}

// vphysics is the vortex instantiation of hotengine.Physics: the
// per-cell payload is the cell's total strength (a vector the
// geometric multipole cannot carry), derived from prefix sums over
// the key-sorted strengths, and a leaf carries position and strength
// columns.
type vphysics struct{ prefA []vec.V3 }

// Prepare derives the structural mass |alpha| so the tree geometry
// (COM, RCrit) follows the vorticity distribution.
func (p *vphysics) Prepare(sys *core.System) {
	for i := 0; i < sys.Len(); i++ {
		sys.Mass[i] = sys.Alpha[i].Norm()
	}
}

// PostBuild computes prefix sums of alpha, giving every local cell's
// total strength from its contiguous body range in O(1).
func (p *vphysics) PostBuild(t *tree.Tree) {
	n := t.Sys.Len()
	p.prefA = make([]vec.V3, n+1)
	for i := 0; i < n; i++ {
		p.prefA[i+1] = p.prefA[i].Add(t.Sys.Alpha[i])
	}
}

func (p *vphysics) Extra(c *tree.Cell) vec.V3 {
	return p.prefA[c.First+c.N].Sub(p.prefA[c.First])
}

func (p *vphysics) CombineExtra(acc, child vec.V3) vec.V3 { return acc.Add(child) }

func (p *vphysics) Columns(sys *core.System) core.System {
	return core.System{Pos: sys.Pos, Alpha: sys.Alpha}
}

// NewParallel wraps this rank's particles.
func NewParallel(c *msg.Comm, sys *core.System, sigma, theta float64) *ParallelEngine {
	sys.EnableDynamics()
	sys.EnableVortex()
	e := &ParallelEngine{Sigma: sigma, Theta: theta}
	e.walk.e = e
	e.Engine = hotengine.New[vec.V3](c, sys, &vphysics{}, hotengine.Config{
		MAC:         grav.MACParams{Kind: grav.MACBarnesHut, Theta: theta, Quad: false},
		Bucket:      32,
		PhasePrefix: "v",
	})
	return e
}

// Eval runs one distributed evaluation: sys.Vel is filled and the
// returned slice holds dalpha/dt for the (redistributed, key-sorted)
// local particles.
func (e *ParallelEngine) Eval() []vec.V3 {
	e.ExchangeFor(&e.walk, nil)
	e.dAlpha = make([]vec.V3, e.Sys.Len())
	e.WalkGroups("walk", &e.walk, e.evalGroup)
	return e.dAlpha
}

// visitor is the vortex side of the engine's MAC walk on the
// |alpha|-weighted tree geometry (hotengine.Visitor): accepted cells
// taken as monopoles of their total strength, opened leaves as
// (position, strength) columns, all into the engine's vList.
type visitor struct{ e *ParallelEngine }

func (v *visitor) Begin(keys.Key, vec.V3) { v.e.list.reset() }

func (v *visitor) Cells(cells []*tree.Cell, asum []vec.V3) {
	for i, c := range cells {
		v.e.list.cells = append(v.e.list.cells, cellMoment{ASum: asum[i], Centroid: c.Mp.COM})
	}
}

func (v *visitor) Leaves(cells []*tree.Cell) {
	for _, c := range cells {
		b, lo, hi := v.e.LeafBodies(c)
		v.e.list.addBodies(b.Pos[lo:hi], b.Alpha[lo:hi])
	}
}

// evalGroup sweeps a completed interaction list with the batched
// kernels.
func (e *ParallelEngine) evalGroup(_ keys.Key, g *tree.Cell, ctr *diag.Counters) {
	sys := e.Sys
	lo, hi := g.First, g.First+g.N
	s2 := e.Sigma * e.Sigma
	list, tg := &e.list, &e.tg
	tg.load(sys.Pos[lo:hi], sys.Alpha[lo:hi])
	ctr.VortexPP += evalVelMono(tg, list.cells, s2)
	ctr.VortexPP += evalVelPP(tg, list, s2)
	tg.store(sys.Vel[lo:hi], e.dAlpha[lo:hi])
}

// Step advances one RK2 (midpoint) step with distributed evaluations.
// The pre-step state rides with the particles: after the first
// evaluation Pos and Alpha are cloned into the system's Pos0 and Alpha0
// columns, which the second evaluation's exchange moves like any other,
// so each particle finishes the step from its own columns on whichever
// rank now holds it. The clones are fresh every step (the sorter swaps
// each column it permutes with its scratch, so no buffer of the engine's
// could be kept), and the columns are cleared before Step returns, so
// the next first evaluation and Remesh neither carry nor charge them.
// Returns this step's counter delta, like the gravity and SPH engines.
func (e *ParallelEngine) Step(dt float64) diag.Counters {
	start := e.Counters
	d1 := e.Eval()
	s := e.Sys
	s.Pos0, s.Alpha0 = slices.Clone(s.Pos), slices.Clone(s.Alpha)
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].Add(s.Vel[i].Scale(dt / 2))
		s.Alpha[i] = s.Alpha[i].Add(d1[i].Scale(dt / 2))
	}
	d2 := e.Eval()
	s = e.Sys
	for i := range s.Pos {
		s.Pos[i] = s.Pos0[i].Add(s.Vel[i].Scale(dt))
		s.Alpha[i] = s.Alpha0[i].Add(d2[i].Scale(dt))
	}
	s.Pos0, s.Alpha0 = nil, nil
	return e.Counters.Sub(start)
}
