package tree

import (
	"math"
	"unsafe"

	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/keys"
	"repro/internal/vec"
)

// Walker holds the reusable state of group traversals: the descent
// (stack and batches of accepted cells and opened leaves), the
// interaction list the walk fills, the runs of bodies the leaves hand
// over, and the SoA target block Evaluate uses. One long-lived Walker
// per rank amortizes every per-group allocation away.
type Walker struct {
	d Descent
	// List is the interaction list built by the last Walk (or the
	// last Begin ... TakeLeaves, TakeCells sequence of a distributed
	// traversal).
	List grav.InteractionList
	runs []grav.Run
	tg   grav.Targets
	// The current group's key, fixed by Begin.
	groupKey keys.Key
}

// Bodies is where the leaves a walk opens keep their bodies: a tree's
// own arena (Tree.LeafBodies), or a rank's columns and imports.
type Bodies interface {
	LeafBodies(c *Cell) ([]vec.V3, []float64)
}

// GroupSphere returns the bounding sphere of a body set: midpoint of
// the coordinate bounds and the max distance to it. It runs once per
// group per force evaluation, so it is kept allocation-free and
// sqrt-free in the loops: scalar branch min/max for the bounds, then
// a squared-distance max with the single square root taken at the
// end. (The radius genuinely needs the second pass: the center is not
// known until the bounds are, and max |p-c| does not decompose per
// coordinate. The second pass is 8 flops per body, no calls.)
func GroupSphere(pos []vec.V3) (center vec.V3, radius float64) {
	if len(pos) == 0 {
		return vec.V3{}, 0
	}
	lox, loy, loz := pos[0].X, pos[0].Y, pos[0].Z
	hix, hiy, hiz := lox, loy, loz
	for i := 1; i < len(pos); i++ {
		x, y, z := pos[i].X, pos[i].Y, pos[i].Z
		if x < lox {
			lox = x
		} else if x > hix {
			hix = x
		}
		if y < loy {
			loy = y
		} else if y > hiy {
			hiy = y
		}
		if z < loz {
			loz = z
		} else if z > hiz {
			hiz = z
		}
	}
	cx, cy, cz := 0.5*(lox+hix), 0.5*(loy+hiy), 0.5*(loz+hiz)
	var r2max float64
	for i := range pos {
		dx := pos[i].X - cx
		dy := pos[i].Y - cy
		dz := pos[i].Z - cz
		if r2 := dx*dx + dy*dy + dz*dz; r2 > r2max {
			r2max = r2
		}
	}
	return vec.V3{X: cx, Y: cy, Z: cz}, math.Sqrt(r2max)
}

// Action is a traversal's verdict on one resolved cell.
type Action uint8

const (
	Skip   Action = iota // contributes nothing to the group
	Accept               // far enough: its moments stand in for its bodies
	Open                 // too close: descend (a leaf hands over its bodies)
)

// Classify applies the multipole acceptance criterion to cell c for a
// group with bounding sphere (gc, gr): the cell's moments stand in for
// its bodies when its centre of mass is farther than RCrit from every
// point of the sphere, d > RCrit + gr, compared squared so that a
// visit takes no square root. (For RCrit >= 0 that is the d - gr >
// RCrit && d > gr it replaces, in exact arithmetic; an infinite RCrit
// still opens.) A cell is skipped only if both its mass and its second
// moment B2 are zero, as they are when all of its bodies are massless:
// with signed masses (internal/bem's panel sources) the mass alone can
// cancel to zero while the bodies still act.
func Classify(c *Cell, gc vec.V3, gr float64) Action {
	if c.Mp.M == 0 && c.Mp.B2 == 0 {
		return Skip // massless bodies contribute nothing
	}
	dx, dy, dz := c.Mp.COM.X-gc.X, c.Mp.COM.Y-gc.Y, c.Mp.COM.Z-gc.Z
	if s := c.RCrit + gr; dx*dx+dy*dy+dz*dz > s*s {
		return Accept
	}
	return Open
}

// Bound encloses the spheres of a set of groups: the box of their
// centres and their largest radius. A rank publishes one for the
// groups it is about to walk, and cell owners classify against it
// (ClassifyBound) to find every cell one of those groups could open.
// Any is false for the empty set.
type Bound struct {
	Lo, Hi vec.V3
	R      float64
	Any    bool
}

// Add grows b to enclose the sphere (c, r).
func (b *Bound) Add(c vec.V3, r float64) {
	if !b.Any {
		*b = Bound{Lo: c, Hi: c, R: r, Any: true}
		return
	}
	b.Lo, b.Hi, b.R = vec.Min(b.Lo, c), vec.Max(b.Hi, c), math.Max(b.R, r)
}

// Nearest returns the point of b's box nearest to p: the worst-case
// centre, as seen from p, of a sphere b encloses. For every c inside
// the box p.Sub(Nearest(p)).Norm2() <= p.Sub(c).Norm2(), in floating
// point too: each component's magnitude is no larger, and squaring and
// the sum are monotone.
func (b *Bound) Nearest(p vec.V3) vec.V3 {
	return vec.V3{
		X: max(b.Lo.X, min(p.X, b.Hi.X)),
		Y: max(b.Lo.Y, min(p.Y, b.Hi.Y)),
		Z: max(b.Lo.Z, min(p.Z, b.Hi.Z)),
	}
}

// ClassifyBound is Classify made conservative over b: it returns Open
// whenever Classify would for any sphere (gc, gr) with gc inside b's
// box and gr <= b.R, because the squared distance it measures is no
// larger and the radius no smaller, and both sides of Classify's
// comparison are monotone (the sum and the square of a non-negative
// number are, rounded too).
func ClassifyBound(c *Cell, b *Bound) Action {
	return Classify(c, b.Nearest(c.Mp.COM), b.R)
}

// Begin starts a list build for the group with key groupKey: it
// resets w.List for TakeLeaves and TakeCells, in the frame of the
// group's box centre, the centre of GroupSphere(gpos).
func (w *Walker) Begin(groupKey keys.Key, center vec.V3) {
	w.groupKey = groupKey
	w.List.Reset(center)
}

// TakeLeaves adds a traversal's batch of opened leaves to the list, in
// order: the group's own cell sets the Self flag, every other leaf's
// bodies, read from src, go to the source columns in one
// InteractionList.AddRuns.
func (w *Walker) TakeLeaves(cells []*Cell, src Bodies) {
	runs := w.runs[:0]
	for _, c := range cells {
		if c.Key == w.groupKey {
			w.List.Self = true
			continue
		}
		pos, mass := src.LeafBodies(c)
		runs = append(runs, grav.Run{Pos: pos, Mass: mass})
	}
	w.List.AddRuns(runs)
	clear(runs) // a reused Walker outlives the columns it read
	w.runs = runs
}

// TakeCells gathers a traversal's batch of accepted cells into the
// list's slab, in order (InteractionList.AddCells).
func (w *Walker) TakeCells(cells []*Cell) { w.List.AddCells(moments(cells)) }

// moments views cells as pointers to their moments: Mp is a Cell's
// first field, so a *Cell points at its Multipole too.
func moments(cells []*Cell) []*grav.Multipole {
	return unsafe.Slice((**grav.Multipole)(unsafe.Pointer(unsafe.SliceData(cells))), len(cells))
}

// moments needs Cell.Mp at offset 0: this fails to compile otherwise.
var _ [0]struct{} = [unsafe.Offsetof(Cell{}.Mp)]struct{}{}

// Walk traverses t for one group of bodies and builds the group's
// interaction list in w.List (phase 1 of the two-phase evaluation):
// accepted multipoles go to the cell slab, leaf bodies are gathered
// into the SoA source columns, and the group's own cell sets the Self
// flag. No forces are computed here -- call Evaluate afterwards.
// groupKey identifies the group's own cell. It is Descend from the
// root, the descent the distributed engine runs below its own
// branches. A tree holds every cell below its root, so missing is
// always nil; the result remains for callers that check it.
func (w *Walker) Walk(t *Tree, groupKey keys.Key, gpos []vec.V3, ctr *diag.Counters) (missing []keys.Key) {
	gc, gr := GroupSphere(gpos)
	w.Begin(groupKey, gc)
	w.d.Aim(groupKey, gc, gr)
	ctr.Traversals += t.Descend(&w.d, 0, 1, true)
	w.TakeLeaves(w.d.Opened, t)
	w.TakeCells(w.d.Accepted)
	w.d.Drop() // a reused Walker outlives the trees it walks
	return nil
}

// Evaluate applies the interaction list built by the last Walk to the
// group (phase 2): gather the targets into the SoA block, sweep the
// multipole slab and the source columns with the batched kernels, and
// scatter the results, overwriting acc and pot. gmass is needed only
// for the self-interaction (it may be nil when w.List.Self is false).
// Interaction counts are identical to the fused walk's.
func (w *Walker) Evaluate(gpos []vec.V3, gmass []float64, acc []vec.V3, pot []float64, eps2 float64, quad bool, ctr *diag.Counters) {
	if w.List.Self {
		w.tg.Load(gpos, gmass)
	} else {
		w.tg.Load(gpos, nil)
	}
	n := grav.EvalM2P(&w.tg, &w.List, quad, eps2)
	ctr.PC += n
	if quad {
		ctr.QuadPC += n
	}
	ctr.PP += grav.EvalPP(&w.tg, &w.List, eps2)
	if w.List.Self {
		ctr.PP += grav.EvalSelf(&w.tg, eps2)
	}
	w.tg.Store(acc, pot)
}

// Gravity runs a full serial force evaluation through the two-phase
// (interaction-list) path: for every group, build its list, evaluate
// it batched, and record the per-body work weights (the group's
// interactions over its bodies, which share its list). The system must
// have dynamics enabled. Returns the interaction counters. It is the
// serial reference the one-rank distributed engine reproduces bit for
// bit; programs evaluate gravity through that engine.
func (t *Tree) Gravity(eps2 float64) diag.Counters {
	var ctr diag.Counters
	var w Walker
	sys := t.Sys
	for _, gk := range t.Groups {
		g := t.Cell(gk)
		lo, hi := g.First, g.First+g.N
		before := ctr.PP + ctr.PC
		w.Walk(t, gk, sys.Pos[lo:hi], &ctr)
		w.Evaluate(sys.Pos[lo:hi], sys.Mass[lo:hi], sys.Acc[lo:hi], sys.Pot[lo:hi], eps2, t.MAC.Quad, &ctr)
		if g.N > 0 {
			per := (ctr.PP + ctr.PC - before) / uint64(g.N)
			for i := lo; i < hi; i++ {
				sys.Work[i] = per
			}
		}
	}
	return ctr
}

// PerBodyWalk counts the interactions of the original algorithm for
// every stride-th body: one walk per body, a sphere of radius zero, the
// same MAC, accepted cells plus the bodies of opened leaves less
// itself, and no list. Grouping lengthens lists to fill the kernels'
// lanes, so a counted rate flatters it; this count over the grouped one
// (Sys.Work, once evaluated) takes it back to the algorithm the paper
// timed (GRAPE-5's correction).
func (t *Tree) PerBodyWalk(stride int) (inter uint64, sampled int) {
	var d Descent
	for i := 0; i < t.Sys.Len(); i += stride {
		d.Aim(keys.Invalid, t.Sys.Pos[i], 0)
		t.Descend(&d, 0, 1, true)
		inter += uint64(len(d.Accepted))
		for _, c := range d.Opened {
			inter += uint64(c.N)
		}
		sampled++
	}
	d.Drop()
	return inter - uint64(sampled), sampled
}
