package sph

import (
	"math"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/hotengine"
	"repro/internal/integrate"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/parallel"
	"repro/internal/tree"
	"repro/internal/vec"
)

// ParallelEngine runs SPH on the distributed hashed oct-tree: the
// third instantiation of the shared pipeline (internal/hotengine),
// the paper's point that SPH was "implemented ... interfaced to
// exactly the same library" as gravity. Density and forces are two
// traversal passes of range queries against the distributed tree:
// each walk group prunes cells against its search sphere (group
// bounding sphere inflated by the largest kernel support), gathering
// local and imported leaf bodies as neighbor candidates; cells held
// by other ranks arrive through the same deferred-group batched
// request rounds as gravity. Between the passes the imports are
// discarded and re-fetched, because the force pass must see the
// densities the owning ranks just computed, not the stale copies.
// An optional third pass evaluates self-gravity over the same imported
// cells: gravity's own pass (parallel.Pass), the engine's MAC walk. The
// pair loops and the gatherer decide on squared distances and take a
// square root only within a relative 2^-40 of the radius (sqBounds): no
// decision differs from the exact Norm() test's. The serial reference the
// engine is held to is in serial_test.go.
type ParallelEngine struct {
	*hotengine.Engine[hotengine.None]
	Cfg ParallelConfig

	pressure []vec.V3
	// cand is the candidate block of the group being gathered and
	// evaluated: the bodies of every leaf it gathered, in the columns
	// a leaf carries (physics.Columns).
	cand    core.System
	gravity *parallel.Pass
}

// ParallelConfig controls the distributed SPH evaluation.
type ParallelConfig struct {
	Params Params
	// Bucket is the tree leaf capacity (default 16, matching the
	// serial Step).
	Bucket int
	// Gravity adds a self-gravity pass after the SPH forces; Eps2 is
	// its Plummer softening and Theta the Barnes-Hut opening angle of
	// the shared tree (default 0.7, matching the serial Step).
	Gravity bool
	Eps2    float64
	Theta   float64
}

// physics is the SPH instantiation of hotengine.Physics. Like
// gravity, the geometric multipole is all the per-cell state the
// traversal needs (range queries prune on cell geometry alone).
type physics struct{}

func (physics) Prepare(sys *core.System) {}
func (physics) PostBuild(t *tree.Tree)   {}

func (physics) Extra(c *tree.Cell) hotengine.None                 { return hotengine.None{} }
func (physics) CombineExtra(acc, _ hotengine.None) hotengine.None { return acc }

// Columns is every per-body column a remote neighbor interaction needs.
// The engine snapshots them once per walk phase, so an imported Rho is
// whatever the owner held then: the force pass drops the density pass's
// imports and is pushed the densities just computed.
func (physics) Columns(sys *core.System) core.System {
	return core.System{Pos: sys.Pos, Vel: sys.Vel, Mass: sys.Mass, H: sys.H, Rho: sys.Rho, ID: sys.ID}
}

// NewParallel wraps this rank's particles.
func NewParallel(c *msg.Comm, sys *core.System, cfg ParallelConfig) *ParallelEngine {
	if cfg.Bucket <= 0 {
		cfg.Bucket = 16
	}
	if cfg.Theta <= 0 {
		cfg.Theta = 0.7
	}
	sys.EnableDynamics()
	sys.EnableSPH()
	e := &ParallelEngine{Cfg: cfg}
	e.Engine = hotengine.New[hotengine.None](c, sys, physics{}, hotengine.Config{
		MAC:         grav.MACParams{Kind: grav.MACBarnesHut, Theta: cfg.Theta, Quad: false},
		Bucket:      cfg.Bucket,
		PhasePrefix: "sph",
	})
	e.gravity = parallel.NewPass(e.Engine, cfg.Eps2)
	return e
}

// Eval runs one full distributed evaluation: decompose and exchange,
// then the density pass, a re-fetch, the force pass, and (when
// configured) the gravity pass. On return Sys.Rho holds densities
// and Sys.Acc the pressure (plus gravity) accelerations of the
// redistributed local particles. The returned counters are the
// deltas of this evaluation.
func (e *ParallelEngine) Eval() diag.Counters {
	start := e.Counters
	e.Exchange()
	sys := e.Sys

	gather := &gatherer{e: e}
	e.WalkGroups("density", gather, e.evalDensity)

	// The force pass reads neighbor densities, which the density pass
	// just computed on their owning ranks: drop the stale imports and
	// have them pushed again. (The engine snapshots an owner's columns
	// after its own density pass, so what it pushes is final.)
	e.ResetImports()

	if cap(e.pressure) < sys.Len() {
		e.pressure = make([]vec.V3, sys.Len())
	}
	e.pressure = e.pressure[:sys.Len()]
	e.WalkGroups("forces", gather, e.evalForces)

	if e.Cfg.Gravity {
		// The pass adds gravity's share of the work to the density pass's.
		e.WalkGroups("gravity", e.gravity, e.gravity.Eval)
		for i := range sys.Acc {
			sys.Acc[i] = sys.Acc[i].Add(e.pressure[i])
		}
	} else {
		copy(sys.Acc, e.pressure)
	}

	return e.Counters.Sub(start)
}

// gatherer is the neighbor search of the density and force passes, a
// range query (hotengine.Visitor and RangeQuery): it collects every
// body that could lie within two smoothing lengths of any particle of
// the group into the engine's candidate block, pruning cells whose cube
// is entirely outside the group's search sphere (the same
// cube-versus-sphere test as the serial Neighbors). It never accepts a
// cell: range queries prune on geometry alone.
type gatherer struct{ e *ParallelEngine }

func (v *gatherer) Begin(keys.Key, vec.V3) { v.e.cand = *v.e.cand.Slice(0, 0) }

// Sphere is the group's search sphere: its bounding sphere grown by the
// largest kernel support of its particles.
func (v *gatherer) Sphere(g *tree.Cell) (vec.V3, float64) {
	lo, hi := g.First, g.First+g.N
	gc, gr := tree.GroupSphere(v.e.Sys.Pos[lo:hi])
	hmax := 0.0
	for _, h := range v.e.Sys.H[lo:hi] {
		hmax = max(hmax, h)
	}
	return gc, gr + 2*hmax
}

// TestBound, the traversal's test over the group's own search sphere,
// prunes a cell whose cube is entirely outside every search sphere b
// encloses: its center is farther from b's box (one group's
// center, in a traversal) than the largest radius plus the
// half-diagonal. The squared distance decides outside sqBounds' margin
// on either side of that reach; inside it the exact Norm() > reach
// does, so every decision is the unsquared test's.
func (v *gatherer) TestBound(c *tree.Cell, b *tree.Bound) tree.Action {
	if c.N == 0 {
		return tree.Skip
	}
	center, size := v.e.Domain.CellCenter(c.Key)
	reach := b.R + size*math.Sqrt(3)/2
	d2 := center.Sub(b.Nearest(center)).Norm2()
	near, far := sqBounds(reach)
	if d2 > far || d2 > near && math.Sqrt(d2) > reach {
		return tree.Skip
	}
	return tree.Open
}

func (v *gatherer) Cells([]*tree.Cell, []hotengine.None) {}

func (v *gatherer) Leaves(cells []*tree.Cell) {
	for _, c := range cells {
		b, lo, hi := v.e.LeafBodies(c)
		v.e.cand.AppendRange(b, int(lo), int(hi))
	}
}

// evalDensity computes rho by kernel summation for one group from its
// gathered candidate block, with the same per-pair arithmetic and pair
// accounting as the serial Density (self included). A candidate past
// far is out without a square root (sqBounds); every other one takes
// the serial loop's exact Norm() <= r, so the neighbour set and its
// order are the serial loop's. The scan takes pos[j] - x, the exact
// negation of x - pos[j] and so the same r2, because then the compiler
// subtracts into the loaded value instead of copying x first.
func (e *ParallelEngine) evalDensity(_ keys.Key, g *tree.Cell, ctr *diag.Counters) {
	sys := e.Sys
	cand := &e.cand
	lo, hi := g.First, g.First+g.N
	pos := cand.Pos
	mass := cand.Mass[:len(pos)]
	for i := lo; i < hi; i++ {
		h := sys.H[i]
		r := 2 * h
		_, far := sqBounds(r)
		norm := 1 / (math.Pi * h * h * h)
		xi := sys.Pos[i]
		rho := 0.0
		var pairs uint64
		for j := range pos {
			r2 := pos[j].Sub(xi).Norm2()
			if r2 > far {
				continue
			}
			if d := math.Sqrt(r2); d <= r {
				rho += mass[j] * w(d, h, norm)
				pairs++
			}
		}
		// Its neighbour pairs are the body's work in the next
		// decomposition (the gravity pass adds its share on top).
		sys.Rho[i], sys.Work[i] = rho, pairs
		ctr.SPHPairs += pairs
	}
}

// evalForces computes the symmetric pressure force plus Monaghan
// artificial viscosity for one group from its gathered candidate
// block, matching the serial Forces pair for pair (self-pairs
// excluded by particle ID, which is what the serial index test means
// once neighbors can be remote copies). The scan is evalDensity's:
// a candidate past far is out, and every other one goes to
// forceTarget.add, out of line, so the scan, where nearly every
// candidate ends, keeps its few values in registers.
func (e *ParallelEngine) evalForces(_ keys.Key, g *tree.Cell, ctr *diag.Counters) {
	sys := e.Sys
	pos := e.cand.Pos
	lo, hi := g.First, g.First+g.N
	p := &e.Cfg.Params
	t := forceTarget{p: p, c: &e.cand}
	for i := lo; i < hi; i++ {
		hsml, rhoi := sys.H[i], sys.Rho[i]
		t.x, t.vel, t.id = sys.Pos[i], sys.Vel[i], sys.ID[i]
		t.h, t.r, t.rho = hsml, 2*hsml, rhoi
		t.term, t.cs = p.pressure(rhoi)/(rhoi*rhoi), p.soundSpeed(rhoi)
		t.acc = vec.V3{}
		_, far := sqBounds(t.r)
		xi := t.x
		for j := range pos {
			if pos[j].Sub(xi).Norm2() > far {
				continue
			}
			t.add(j)
		}
		e.pressure[i] = t.acc
	}
	ctr.SPHPairs += t.pairs
}

// forceTarget is the force pass's target: what the pair term needs of
// it, taken once per target by the serial loop's own expressions (the
// pressure term P_i/rho_i^2 and the sound speed among them), and its
// running sum.
type forceTarget struct {
	p                   *Params
	c                   *core.System
	x, vel              vec.V3
	id                  int64
	h, r, rho, term, cs float64
	acc                 vec.V3
	pairs               uint64
}

// add applies candidate j if the serial loop's exact test makes it a
// neighbour (Norm() <= 2h, and not the target itself), with the
// serial Forces' pair term: the symmetric pressure gradient, plus
// viscosity on an approaching pair, weighted by j's mass. The gradient
// is handed the distance instead of taking a second Norm.
func (t *forceTarget) add(j int) {
	cand, p := t.c, t.p
	rij := t.x.Sub(cand.Pos[j])
	r2 := rij.Norm2()
	d := math.Sqrt(r2)
	if d > t.r || cand.ID[j] == t.id {
		return
	}
	hbar := 0.5 * (t.h + cand.H[j])
	Pj := p.pressure(cand.Rho[j])
	term := t.term + Pj/(cand.Rho[j]*cand.Rho[j])
	// Artificial viscosity on approaching pairs.
	if p.AlphaVisc > 0 {
		vij := t.vel.Sub(cand.Vel[j])
		vr := vij.Dot(rij)
		if vr < 0 {
			mu := hbar * vr / (r2 + 0.01*hbar*hbar)
			rhob := 0.5 * (t.rho + cand.Rho[j])
			cbar := 0.5 * (t.cs + p.soundSpeed(cand.Rho[j]))
			term += (-p.AlphaVisc*cbar*mu + p.BetaVisc*mu*mu) / rhob
		}
	}
	t.acc = t.acc.Sub(gradW(rij, d, hbar).Scale(cand.Mass[j] * term))
	t.pairs++
}

// sphBodies adapts the engine to integrate.Bodies. SPH stays on
// uniform steps -- the hydrodynamic state (density, pressure) has no
// per-rung partial evaluation here -- so minRung is ignored and every
// Forces call is a full Eval.
type sphBodies struct{ e *ParallelEngine }

func (b sphBodies) Sys() *core.System { return b.e.Sys }
func (b sphBodies) Forces(int)        { b.e.Eval() }
func (b sphBodies) MaxRung(local int) int {
	return msg.Allreduce(b.e.C, local, msg.MaxI, 8)
}

// Step advances one uniform kick-drift-kick leapfrog step through the
// shared integrate core. The engine's accelerations must be current
// (call Eval once before the first Step). The evaluation inside
// redistributes particles, so callers must track them by ID.
func (e *ParallelEngine) Step(dt float64) diag.Counters {
	start := e.Counters
	st := integrate.Stepper{B: sphBodies{e}}
	st.Step(dt)
	return e.Counters.Sub(start)
}

// Record extends the pipeline's rank record with SPH's invariants:
// this rank's partial kinetic energy and momentum (plus gravitational
// potential when the gravity pass runs), summed across ranks by the
// reader. Call from the rank's own goroutine after an evaluation.
func (e *ParallelEngine) Record() metrics.RankInput {
	in := e.Engine.Record()
	in.HasEnergy = true
	for i := range e.Sys.Vel {
		in.Kinetic += 0.5 * e.Sys.Mass[i] * e.Sys.Vel[i].Norm2()
		in.Momentum = in.Momentum.Add(e.Sys.Vel[i].Scale(e.Sys.Mass[i]))
	}
	if e.Cfg.Gravity {
		for i := range e.Sys.Pot {
			in.Potential += 0.5 * e.Sys.Mass[i] * e.Sys.Pot[i]
		}
	}
	return in
}
