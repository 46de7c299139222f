package hotengine_test

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/hotengine"
	"repro/internal/ic"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
)

// cols is the leaf payload of the equivalence tests' physics: the
// columns the three real instantiations ship between them.
type cols struct {
	Pos  []vec.V3
	Mass []float64
	ID   []int64
}

// colPhysics carries a vector payload per cell (the mass-weighted
// position sum, from prefix sums, the way vortex carries its strength
// sum), so accepted cells exercise the by-value payload path of top,
// local and imported cells alike.
type colPhysics struct {
	e    *hotengine.Engine[vec.V3, cols]
	pref []vec.V3
	imp  cols
}

func (p *colPhysics) Prepare(*core.System) {}

func (p *colPhysics) PostBuild(*tree.Tree) {
	sys := p.e.Sys
	p.pref = make([]vec.V3, sys.Len()+1)
	for i := 0; i < sys.Len(); i++ {
		p.pref[i+1] = p.pref[i].Add(sys.Pos[i].Scale(sys.Mass[i]))
	}
}

func (p *colPhysics) Extra(c *tree.Cell) vec.V3          { return p.pref[c.First+c.N].Sub(p.pref[c.First]) }
func (p *colPhysics) CombineExtra(acc, ch vec.V3) vec.V3 { return acc.Add(ch) }

func (p *colPhysics) PackLeaf(c *tree.Cell) cols {
	sys, lo, hi := p.e.Sys, c.First, c.First+c.N
	return cols{Pos: sys.Pos[lo:hi], Mass: sys.Mass[lo:hi], ID: sys.ID[lo:hi]}
}

func (p *colPhysics) ImportLeaf(_ int32, b cols) int32 {
	start := int32(len(p.imp.Pos))
	p.imp.Pos = append(p.imp.Pos, b.Pos...)
	p.imp.Mass = append(p.imp.Mass, b.Mass...)
	p.imp.ID = append(p.imp.ID, b.ID...)
	return start
}

func (p *colPhysics) ResetImports() {
	p.imp = cols{Pos: p.imp.Pos[:0], Mass: p.imp.Mass[:0], ID: p.imp.ID[:0]}
}

// leaf returns a leaf cell's columns, local or imported.
func (p *colPhysics) leaf(c *tree.Cell) cols {
	if c.First >= 0 {
		return p.PackLeaf(c)
	}
	lo := -(c.First + 1)
	hi := lo + c.N
	return cols{Pos: p.imp.Pos[lo:hi], Mass: p.imp.Mass[lo:hi], ID: p.imp.ID[lo:hi]}
}

// recWalk is a visitor that records, per completed group, everything
// the traversal handed it, in order: the interaction list as a flat
// word trace. With rmax zero it opens cells by the multipole acceptance
// criterion and takes accepted cells with their payload (the shape of
// the gravity and vortex walks); with rmax positive it is an SPH-style
// range query that prunes on geometry and never accepts.
type recWalk struct {
	p      *colPhysics
	rmax   float64
	gc     vec.V3
	gr     float64
	traces [][]uint64 // one per pipeline slot
	trace  *[]uint64  // the current traversal's
	mu     sync.Mutex // done may run on an eval worker
	lists  map[keys.Key][]uint64
}

func (w *recWalk) Begin(slot int, _ keys.Key, g *tree.Cell) {
	w.gc, w.gr = tree.GroupSphere(w.p.e.Sys.Pos[g.First : g.First+g.N])
	w.trace = &w.traces[slot]
	*w.trace = (*w.trace)[:0]
}

func (w *recWalk) Test(c *tree.Cell) tree.Action {
	if w.rmax == 0 {
		return tree.Classify(c, w.gc, w.gr)
	}
	center, size := w.p.e.Domain.CellCenter(c.Key)
	if c.N == 0 || center.Sub(w.gc).Norm() > w.gr+w.rmax+size*math.Sqrt(3)/2 {
		return tree.Skip
	}
	return tree.Open
}

func (w *recWalk) Cell(c *tree.Cell, x vec.V3) {
	*w.trace = append(*w.trace, uint64(c.Key), math.Float64bits(c.Mp.M),
		math.Float64bits(x.X), math.Float64bits(x.Y), math.Float64bits(x.Z))
}

func (w *recWalk) Leaf(c *tree.Cell) {
	b := w.p.leaf(c)
	*w.trace = append(*w.trace, uint64(c.Key))
	for i := range b.ID {
		*w.trace = append(*w.trace, uint64(b.ID[i]), math.Float64bits(b.Pos[i].Y), math.Float64bits(b.Mass[i]))
	}
}

func (w *recWalk) done(slot int, gk keys.Key, _ *tree.Cell, _ *diag.Counters) {
	l := slices.Clone(w.traces[slot])
	w.mu.Lock()
	w.lists[gk] = l
	w.mu.Unlock()
}

// gravWalk drives a tree.Walker the way the gravity engine and the SPH
// gravity pass do, evaluates each completed list with the production
// kernels, and records the list columns.
type gravWalk struct {
	p     *colPhysics
	w     tree.Walker
	lists map[keys.Key][]uint64
}

func (v *gravWalk) Begin(_ int, gk keys.Key, g *tree.Cell) {
	v.w.Begin(gk, v.p.e.Sys.Pos[g.First:g.First+g.N])
}
func (v *gravWalk) Test(c *tree.Cell) tree.Action { return v.w.Test(c) }
func (v *gravWalk) Cell(c *tree.Cell, _ vec.V3)   { v.w.List.AddCell(&c.Mp) }
func (v *gravWalk) Leaf(c *tree.Cell) {
	b := v.p.leaf(c)
	v.w.TakeLeaf(c, b.Pos, b.Mass)
}

func (v *gravWalk) eval(_ int, gk keys.Key, g *tree.Cell, ctr *diag.Counters) {
	sys, lo, hi := v.p.e.Sys, g.First, g.First+g.N
	v.w.Evaluate(sys.Pos[lo:hi], sys.Mass[lo:hi], sys.Acc[lo:hi], sys.Pot[lo:hi], 1e-6, true, ctr)
	l := &v.w.List
	var words []uint64
	for _, col := range [][]float64{l.SX, l.SY, l.SZ, l.SM, l.CM, l.CX, l.CY, l.CZ, l.QXX, l.QYZ} {
		words = append(words, uint64(len(col)))
		for _, f := range col {
			words = append(words, math.Float64bits(f))
		}
	}
	if l.Self {
		words = append(words, 1)
	}
	v.lists[gk] = words
}

// walkRecord is everything one rank's run of the five passes leaves
// behind that the two walk implementations must agree on.
type walkRecord struct {
	lists  [5]map[keys.Key][]uint64 // per pass: group -> list trace
	ctr    [5]diag.Counters         // per pass deltas
	rounds [5]int
	remote [5]int
	acc    map[int64]vec.V3 // gravity-pass forces by body ID
}

// runPasses runs, on every rank of a fresh world, the traversal passes
// of all three physics: a gravity walk; a payload-carrying (vortex)
// walk; and the SPH sequence density -> re-fetch -> forces -> gravity,
// the last starting from the force pass's imports. walk selects the
// implementation under test.
func runPasses(np, workers, prefetch int, restart bool) ([]walkRecord, msg.PhaseTraffic) {
	const n = 1500
	recs := make([]walkRecord, np)
	var mu sync.Mutex
	w := msg.NewWorld(np)
	w.Run(func(c *msg.Comm) {
		global := ic.Plummer(n, 1.0, 29)
		local := core.New(0)
		local.EnableDynamics()
		for i := c.Rank() * n / np; i < (c.Rank()+1)*n/np; i++ {
			local.AppendFrom(global, i)
		}
		p := &colPhysics{}
		e := hotengine.New[vec.V3, cols](c, local, p, hotengine.Config{
			MAC:         grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true},
			Bucket:      8,
			EvalWorkers: workers, PrefetchDepth: prefetch,
		})
		defer e.Close()
		p.e = e
		e.Exchange()

		rec := walkRecord{acc: map[int64]vec.V3{}}
		pass := 0
		run := func(label string, inline bool, v hotengine.Visitor[vec.V3], eval hotengine.EvalFn, lists map[keys.Key][]uint64) {
			before := e.Counters
			r0 := e.Rounds
			switch {
			case restart:
				e.RestartWalkGroups(label, v, eval)
			case inline:
				e.WalkGroupsInline(label, v, eval)
			default:
				e.WalkGroups(label, v, eval)
			}
			rec.lists[pass], rec.ctr[pass] = lists, e.Counters.Sub(before)
			rec.rounds[pass], rec.remote[pass] = e.Rounds-r0, e.RemoteCells
			pass++
		}
		gravity := func(label string) {
			v := &gravWalk{p: p, lists: map[keys.Key][]uint64{}}
			run(label, true, v, v.eval, v.lists) // one Walker: evaluate inline
		}
		query := func(label string, rmax float64, inline bool) {
			v := &recWalk{p: p, rmax: rmax, traces: make([][]uint64, e.Slots()), lists: map[keys.Key][]uint64{}}
			run(label, inline, v, v.done, v.lists)
		}

		gravity("walk")
		for i := 0; i < e.Sys.Len(); i++ {
			rec.acc[e.Sys.ID[i]] = e.Sys.Acc[i]
		}
		e.ResetImports()
		query("vwalk", 0, false)
		e.ResetImports()
		query("density", 0.15, true)
		e.ResetImports()
		query("forces", 0.15, false)
		gravity("gravity")

		mu.Lock()
		recs[c.Rank()] = rec
		mu.Unlock()
	})
	return recs, w.TotalTraffic()
}

// TestResumedWalkMatchesRestart holds the suspended walk to the
// restart-from-root walk it replaced (export_test.go keeps that one as
// the reference): for the traversal shapes of gravity, vortex and SPH
// (density, forces and gravity passes) at 2, 4 and 8 ranks, every
// group's interaction list is identical element for element, the
// gravity forces are bitwise equal, and so are the completed-walk
// visits, the deferrals, the requests, the rounds, the imported cells
// and the world's traffic. With eval workers on, scheduling may differ
// but the lists and forces may not.
func TestResumedWalkMatchesRestart(t *testing.T) {
	passes := [5]string{"gravity", "vortex", "sph density", "sph forces", "sph gravity"}
	for _, np := range []int{2, 4, 8} {
		for _, prefetch := range []int{0, 1} {
			name := fmt.Sprintf("np=%d prefetch=%d", np, prefetch)
			want, wantTraffic := runPasses(np, 0, prefetch, true)
			got, gotTraffic := runPasses(np, 0, prefetch, false)
			piped, _ := runPasses(np, 2, prefetch, false)
			if gotTraffic != wantTraffic {
				t.Errorf("%s: traffic %+v, restart walk %+v", name, gotTraffic, wantTraffic)
			}
			for r := 0; r < np; r++ {
				for ps, pname := range passes {
					where := fmt.Sprintf("%s rank %d %s", name, r, pname)
					g, w := got[r].ctr[ps], want[r].ctr[ps]
					if w.Rewalked != 0 {
						t.Fatalf("%s: the reference counted rewalked visits", where)
					}
					g.Rewalked = 0
					if g != w {
						t.Errorf("%s: counters %+v, restart walk %+v", where, g, w)
					}
					if got[r].rounds[ps] != want[r].rounds[ps] || got[r].remote[ps] != want[r].remote[ps] {
						t.Errorf("%s: %d rounds / %d imported cells, restart walk %d / %d", where,
							got[r].rounds[ps], got[r].remote[ps], want[r].rounds[ps], want[r].remote[ps])
					}
					for _, run := range []walkRecord{got[r], piped[r]} {
						if len(run.lists[ps]) != len(want[r].lists[ps]) {
							t.Fatalf("%s: %d groups completed, restart walk %d", where, len(run.lists[ps]), len(want[r].lists[ps]))
						}
						for gk, l := range want[r].lists[ps] {
							if !slices.Equal(run.lists[ps][gk], l) {
								t.Fatalf("%s: group %v list differs from the restart walk's", where, gk)
							}
						}
					}
				}
				for id, a := range want[r].acc {
					if got[r].acc[id] != a || piped[r].acc[id] != a {
						t.Fatalf("%s rank %d: body %d force differs from the restart walk's", name, r, id)
					}
				}
			}
		}
	}
}
