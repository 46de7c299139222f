package vortex

import (
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
	*hotengine.Engine[vec.V3, VLeaf]
	Sigma float64
	Theta float64

	phys   *vphysics
	list   vList
	tg     vTargets
	walk   visitor
	dAlpha []vec.V3
}

// VLeaf is the vortex leaf payload of a pushed or requested cell:
// position and strength columns, slices of the owner's snapshot.
type VLeaf struct {
	Pos   []vec.V3
	Alpha []vec.V3
}

// vphysics is the vortex instantiation of hotengine.Physics: the
// per-cell payload is the cell's total strength (a vector the
// geometric multipole cannot carry), derived from prefix sums over
// the key-sorted strengths.
type vphysics struct {
	e     *ParallelEngine
	prefA []vec.V3

	snap     VLeaf
	impPos   []vec.V3
	impAlpha []vec.V3
}

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
	n := p.e.Sys.Len()
	p.prefA = make([]vec.V3, n+1)
	for i := 0; i < n; i++ {
		p.prefA[i+1] = p.prefA[i].Add(p.e.Sys.Alpha[i])
	}
}

func (p *vphysics) Extra(c *tree.Cell) vec.V3 {
	return p.prefA[c.First+c.N].Sub(p.prefA[c.First])
}

func (p *vphysics) CombineExtra(acc, child vec.V3) vec.V3 { return acc.Add(child) }

func (p *vphysics) PackLeaf(c *tree.Cell) VLeaf {
	lo, hi := c.First, c.First+c.N
	return VLeaf{Pos: p.snap.Pos[lo:hi], Alpha: p.snap.Alpha[lo:hi]}
}

func (p *vphysics) Snapshot() {
	sys := p.e.Sys
	p.snap = VLeaf{Pos: append(p.snap.Pos[:0], sys.Pos...), Alpha: append(p.snap.Alpha[:0], sys.Alpha...)}
}

func (p *vphysics) ImportLeaf(n int32, b VLeaf) int32 {
	start := int32(len(p.impPos))
	p.impPos = append(p.impPos, b.Pos...)
	p.impAlpha = append(p.impAlpha, b.Alpha...)
	return start
}

func (p *vphysics) ResetImports() {
	p.impPos = p.impPos[:0]
	p.impAlpha = p.impAlpha[:0]
}

// NewParallel wraps this rank's particles.
func NewParallel(c *msg.Comm, sys *core.System, sigma, theta float64) *ParallelEngine {
	sys.EnableDynamics()
	sys.EnableVortex()
	e := &ParallelEngine{Sigma: sigma, Theta: theta}
	e.phys = &vphysics{e: e}
	e.walk.e = e
	e.Engine = hotengine.New[vec.V3, VLeaf](c, sys, e.phys, hotengine.Config{
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
	e.ExchangeFor(&e.walk, nil, false)
	e.dAlpha = make([]vec.V3, e.Sys.Len())
	e.WalkGroups("walk", &e.walk, e.evalGroup)
	return e.dAlpha
}

// leafBodies returns positions and strengths of a leaf cell.
func (e *ParallelEngine) leafBodies(c *tree.Cell) ([]vec.V3, []vec.V3) {
	if c.First >= 0 {
		return e.Sys.Pos[c.First : c.First+c.N], e.Sys.Alpha[c.First : c.First+c.N]
	}
	i := -(c.First + 1)
	return e.phys.impPos[i : i+c.N], e.phys.impAlpha[i : i+c.N]
}

// visitor is the vortex side of the pipeline's traversal
// (hotengine.Visitor): the gravity MAC on the |alpha|-weighted tree
// geometry, accepted cells taken as monopoles of their total strength,
// opened leaves as (position, strength) columns, all into the engine's
// vList.
type visitor struct{ e *ParallelEngine }

func (v *visitor) Begin(keys.Key, *tree.Cell) { v.e.list.reset() }

func (v *visitor) MAC() bool { return true }

func (v *visitor) Sphere(g *tree.Cell) (vec.V3, float64) {
	return tree.GroupSphere(v.e.Sys.Pos[g.First : g.First+g.N])
}

func (v *visitor) TestBound(c *tree.Cell, b *tree.Bound) tree.Action { return tree.ClassifyBound(c, b) }

func (v *visitor) Cells(cells []*tree.Cell, asum []vec.V3) {
	for i, c := range cells {
		v.e.list.cells = append(v.e.list.cells, cellMoment{ASum: asum[i], Centroid: c.Mp.COM})
	}
}

func (v *visitor) Leaf(c *tree.Cell) { v.e.list.addBodies(v.e.leafBodies(c)) }

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

// saved is a particle's position and strength under its ID: the
// pre-step state Step carries across rank migrations, and what Remesh
// sends the owners of the particle's lattice nodes.
type saved struct {
	ID   int64
	X, A vec.V3
}

// Step advances one RK2 (midpoint) step with distributed evaluations.
// The decomposition between the two stages may migrate particles
// across ranks, so the pre-step state is exchanged by particle ID (a
// collective allgather; the in-process machine makes this cheap, and
// the state is ~56 bytes/particle either way). Returns this step's
// counter delta, like the gravity and SPH engines.
func (e *ParallelEngine) Step(dt float64) diag.Counters {
	start := e.Counters
	d1 := e.Eval()
	n := e.Sys.Len()
	mine := make([]saved, n)
	for i := 0; i < n; i++ {
		mine[i] = saved{ID: e.Sys.ID[i], X: e.Sys.Pos[i], A: e.Sys.Alpha[i]}
	}
	for i := 0; i < n; i++ {
		e.Sys.Pos[i] = e.Sys.Pos[i].Add(e.Sys.Vel[i].Scale(dt / 2))
		e.Sys.Alpha[i] = e.Sys.Alpha[i].Add(d1[i].Scale(dt / 2))
	}
	d2 := e.Eval()
	// Reassemble everyone's pre-step state, keyed by ID.
	all := msg.Allgather(e.C, mine, 56*len(mine))
	x0 := make(map[int64]saved, n)
	for _, batch := range all {
		for _, s := range batch {
			x0[s.ID] = s
		}
	}
	for i := 0; i < e.Sys.Len(); i++ {
		s, ok := x0[e.Sys.ID[i]]
		if !ok {
			panic("vortex: particle lost its pre-step state")
		}
		e.Sys.Pos[i] = s.X.Add(e.Sys.Vel[i].Scale(dt))
		e.Sys.Alpha[i] = s.A.Add(d2[i].Scale(dt))
	}
	return e.Counters.Sub(start)
}
