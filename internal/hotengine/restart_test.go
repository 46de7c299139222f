package hotengine_test

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

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

func (a cols) Slice(lo, hi int32) cols {
	return cols{Pos: a.Pos[lo:hi], Mass: a.Mass[lo:hi], ID: a.ID[lo:hi]}
}

func (a cols) Append(b cols) cols {
	return cols{Pos: append(a.Pos, b.Pos...), Mass: append(a.Mass, b.Mass...), ID: append(a.ID, b.ID...)}
}

// colPhysics carries a vector payload per cell (the mass-weighted
// position sum, from prefix sums, the way vortex carries its strength
// sum), so accepted cells exercise the by-value payload path of top,
// local and imported cells alike.
type colPhysics struct {
	e    *hotengine.Engine[vec.V3, cols]
	pref []vec.V3
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

func (p *colPhysics) Columns(sys *core.System) cols {
	return cols{Pos: sys.Pos, Mass: sys.Mass, ID: sys.ID}
}

// leaf returns a leaf cell's columns, local or imported.
func (p *colPhysics) leaf(c *tree.Cell) cols {
	b, lo, hi := p.e.LeafBodies(c)
	return b.Slice(lo, hi)
}

// recWalk is a visitor that records, per completed group, everything
// the traversal handed it, in order: the interaction list as a flat
// word trace. It opens cells by the multipole acceptance criterion and
// takes accepted cells with their payload (the shape of the gravity and
// vortex walks); rangeWalk makes it an SPH-style range query.
type recWalk struct {
	p     *colPhysics
	trace []uint64 // the current traversal's: its leaves, then its cells
	lists map[keys.Key][]uint64
}

func (w *recWalk) Begin(keys.Key, vec.V3) { w.trace = w.trace[:0] }

// rangeWalk is recWalk as a range query: it prunes on geometry, the
// group's bounding sphere grown by rmax, and never accepts.
type rangeWalk struct {
	*recWalk
	rmax float64
}

func (w *rangeWalk) Sphere(g *tree.Cell) (vec.V3, float64) {
	gc, gr := tree.GroupSphere(w.p.e.Sys.Pos[g.First : g.First+g.N])
	return gc, gr + w.rmax
}

func (w *rangeWalk) TestBound(c *tree.Cell, b *tree.Bound) tree.Action {
	center, size := w.p.e.Domain.CellCenter(c.Key)
	if c.N == 0 || center.Sub(b.Nearest(center)).Norm() > b.R+size*math.Sqrt(3)/2 {
		return tree.Skip
	}
	return tree.Open
}

func (w *recWalk) Cells(cells []*tree.Cell, xs []vec.V3) {
	for i, c := range cells {
		x := xs[i]
		w.trace = append(w.trace, uint64(c.Key), math.Float64bits(c.Mp.M),
			math.Float64bits(x.X), math.Float64bits(x.Y), math.Float64bits(x.Z))
	}
}

func (w *recWalk) Leaves(cells []*tree.Cell) {
	for _, c := range cells {
		b := w.p.leaf(c)
		w.trace = append(w.trace, uint64(c.Key))
		for i := range b.ID {
			w.trace = append(w.trace, uint64(b.ID[i]), math.Float64bits(b.Pos[i].Y), math.Float64bits(b.Mass[i]))
		}
	}
}

func (w *recWalk) done(gk keys.Key, _ *tree.Cell, _ *diag.Counters) {
	w.lists[gk] = slices.Clone(w.trace)
}

// gravWalk drives a tree.Walker the way the gravity engine and the SPH
// gravity pass do, evaluates each completed list with the production
// kernels, and records the list columns.
type gravWalk struct {
	p     *colPhysics
	w     tree.Walker
	lists map[keys.Key][]uint64
}

func (v *gravWalk) Begin(gk keys.Key, centre vec.V3)     { v.w.Begin(gk, centre) }
func (v *gravWalk) Cells(cells []*tree.Cell, _ []vec.V3) { v.w.TakeCells(cells) }
func (v *gravWalk) Leaves(cells []*tree.Cell)            { v.w.TakeLeaves(cells, v) }

func (v *gravWalk) LeafBodies(c *tree.Cell) ([]vec.V3, []float64) {
	b := v.p.leaf(c)
	return b.Pos, b.Mass
}

func (v *gravWalk) eval(gk keys.Key, g *tree.Cell, ctr *diag.Counters) {
	sys, lo, hi := v.p.e.Sys, g.First, g.First+g.N
	w := &v.w
	w.Evaluate(sys.Pos[lo:hi], sys.Mass[lo:hi], sys.Acc[lo:hi], sys.Pot[lo:hi], 1e-6, true, ctr)
	l := &w.List
	var words []uint64
	o := l.Origin
	words = append(words, math.Float64bits(o.X), math.Float64bits(o.Y), math.Float64bits(o.Z))
	for _, col := range [][]float32{l.SX, l.SY, l.SZ, l.SM, l.CM, l.CX, l.CY, l.CZ, l.QXX, l.QYZ} {
		words = append(words, uint64(len(col)))
		for _, f := range col {
			words = append(words, uint64(math.Float32bits(f)))
		}
	}
	if l.Self {
		words = append(words, 1)
	}
	v.lists[gk] = words
}

// underPush is a gravity walk made a range query whose TestBound
// breaks its contract: over one group's sphere it is the MAC (a
// one-point bound's tree.ClassifyBound is tree.Classify, bit for bit),
// so its lists are gravWalk's, but over a rank's bound it refuses to
// open every third cell, so the owners push too little and the walks
// fall back on park/request/resume for the rest.
type underPush struct{ *gravWalk }

func (v *underPush) Sphere(g *tree.Cell) (vec.V3, float64) {
	return tree.GroupSphere(v.p.e.Sys.Pos[g.First : g.First+g.N])
}

func (v *underPush) TestBound(c *tree.Cell, b *tree.Bound) tree.Action {
	if b.Lo != b.Hi && uint64(c.Key)%3 == 0 {
		return tree.Accept
	}
	return tree.ClassifyBound(c, b)
}

// walkMode selects the walk implementation runPasses drives.
type walkMode int

const (
	restartWalk walkMode = iota // export_test.go's reference, no push
	requestWalk                 // WalkGroups with the push off
	pushedWalk                  // WalkGroups as it ships
	underPushed                 // pushedWalk, the gravity passes through underPush, falling back on requests
)

const npasses = 6

var passNames = [npasses]string{"gravity", "vortex", "sph density", "sph forces", "sph gravity", "partial gravity"}

// walkRecord is everything one rank's run of the passes leaves behind
// that the walk implementations must agree on.
type walkRecord struct {
	lists  [npasses]map[keys.Key][]uint64  // per pass: group -> list trace
	ctr    [npasses]diag.Counters          // per pass deltas
	park   [npasses]hotengine.ParkCounters // per pass deltas
	rounds [npasses]int
	remote [npasses]int
	acc    map[int64]vec.V3 // gravity-pass forces by body ID
	let    error            // the first CheckLET failure, after any pass or reset
}

// runPasses runs, on every rank of a fresh world, the traversal passes
// of all three physics: a gravity walk; a payload-carrying (vortex)
// walk; the SPH sequence density -> re-fetch -> forces -> gravity, the
// last starting from the force pass's imports; and, when partial is
// set, a gravity walk over every other group and none at all on the
// last rank (WalkGroupsIf; the restart reference has no counterpart).
func runPasses(np int, mode walkMode, partial bool) ([]walkRecord, msg.PhaseTraffic) {
	return runPassesOn(ic.Plummer(1500, 1.0, 29), np, mode, partial, false)
}

// runPassesOn is runPasses over the bodies of global, with the descent
// below a rank's own branches by index (as shipped) or, with
// hashDescent set, by key and hash probe.
func runPassesOn(global *core.System, np int, mode walkMode, partial, hashDescent bool) ([]walkRecord, msg.PhaseTraffic) {
	n := global.Len()
	recs := make([]walkRecord, np)
	var mu sync.Mutex
	w := msg.NewWorld(np)
	w.Run(func(c *msg.Comm) {
		local := core.New(0)
		local.EnableDynamics()
		for i := c.Rank() * n / np; i < (c.Rank()+1)*n/np; i++ {
			local.AppendFrom(global, i)
		}
		p := &colPhysics{}
		e := hotengine.New[vec.V3, cols](c, local, p, hotengine.Config{
			MAC:    grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true},
			Bucket: 8,
		})
		e.SetPush(mode >= pushedWalk)
		e.SetFallBack(mode == underPushed)
		e.SetHashDescent(hashDescent)
		p.e = e
		e.Exchange()

		rec := walkRecord{acc: map[int64]vec.V3{}}
		pass := 0
		checkLET := func(when string) {
			if err := e.CheckLET(); err != nil && rec.let == nil {
				rec.let = fmt.Errorf("%s: %w", when, err)
			}
		}
		reset := func() {
			e.ResetImports()
			checkLET(fmt.Sprintf("reset after %s", passNames[pass-1]))
		}
		checkLET("after the exchange")
		run := func(label string, v hotengine.Visitor[vec.V3], eval hotengine.EvalFn, lists map[keys.Key][]uint64) {
			before, park0 := e.Counters, e.Park
			r0 := e.Rounds
			switch {
			case mode == restartWalk:
				e.RestartWalkGroups(label, v, eval)
			case label == "partial":
				// Every other group, by position: the engine asks the
				// predicate once for the walk and once for the push bound,
				// so it must answer the same both times.
				odd := map[keys.Key]bool{}
				for i, gk := range e.Local.Groups {
					odd[gk] = i%2 == 1
				}
				e.WalkGroupsIf(label, func(g *tree.Cell) bool {
					return odd[g.Key] && c.Rank() != np-1
				}, v, eval)
			default:
				e.WalkGroups(label, v, eval)
			}
			rec.lists[pass], rec.ctr[pass], rec.park[pass] = lists, e.Counters.Sub(before), parkDelta(e.Park, park0)
			rec.rounds[pass], rec.remote[pass] = e.Rounds-r0, e.RemoteCells
			checkLET(fmt.Sprintf("after %s", passNames[pass]))
			pass++
		}
		gravity := func(label string) {
			g := &gravWalk{p: p, lists: map[keys.Key][]uint64{}}
			var v hotengine.Visitor[vec.V3] = g
			if mode == underPushed {
				v = &underPush{g}
			}
			run(label, v, g.eval, g.lists)
		}
		query := func(label string, rmax float64) {
			w := &recWalk{p: p, lists: map[keys.Key][]uint64{}}
			var v hotengine.Visitor[vec.V3] = w
			if rmax > 0 {
				v = &rangeWalk{w, rmax}
			}
			run(label, v, w.done, w.lists)
		}

		gravity("walk")
		for i := 0; i < e.Sys.Len(); i++ {
			rec.acc[e.Sys.ID[i]] = e.Sys.Acc[i]
		}
		reset()
		query("vwalk", 0)
		reset()
		query("density", 0.15)
		reset()
		query("forces", 0.15)
		gravity("gravity")
		if partial {
			reset()
			gravity("partial")
		}

		mu.Lock()
		recs[c.Rank()] = rec
		mu.Unlock()
	})
	return recs, w.TotalTraffic()
}

// parkDelta is a - b, field by field.
func parkDelta(a, b hotengine.ParkCounters) hotengine.ParkCounters {
	return hotengine.ParkCounters{
		Rewalked: a.Rewalked - b.Rewalked,
		Deferred: a.Deferred - b.Deferred,
		Requests: a.Requests - b.Requests,
	}
}

// letHeld fails the test if any rank's LET broke its layout (CheckLET)
// after a pass or a reset.
func letHeld(t *testing.T, where string, recs []walkRecord) {
	t.Helper()
	for r, rec := range recs {
		if rec.let != nil {
			t.Errorf("%s rank %d: %v", where, r, rec.let)
		}
	}
}

// sameLists fails the test unless run completed the groups of want in
// pass ps with identical interaction lists.
func sameLists(t *testing.T, where string, ps int, run, want walkRecord) {
	t.Helper()
	if len(run.lists[ps]) != len(want.lists[ps]) {
		t.Fatalf("%s: %d groups completed, reference %d", where, len(run.lists[ps]), len(want.lists[ps]))
	}
	for gk, l := range want.lists[ps] {
		if !slices.Equal(run.lists[ps][gk], l) {
			t.Fatalf("%s: group %v list differs from the reference's", where, gk)
		}
	}
}

// TestResumedWalkMatchesRestart holds the suspended walk, the safety
// net under the push, to the restart-from-root walk it replaced
// (export_test.go keeps that one as the reference): with the push off,
// for the traversal shapes of gravity, vortex and SPH (density, forces
// and gravity passes) at 2, 4 and 8 ranks, every group's interaction
// list is identical element for element, the gravity forces are
// bitwise equal, and so are the completed-walk visits, the deferrals,
// the requests, the rounds, the imported cells and the world's traffic.
func TestResumedWalkMatchesRestart(t *testing.T) {
	for _, np := range []int{2, 4, 8} {
		name := fmt.Sprintf("np=%d", np)
		want, wantTraffic := runPasses(np, restartWalk, false)
		got, gotTraffic := runPasses(np, requestWalk, false)
		letHeld(t, name+" restart", want)
		letHeld(t, name+" requests", got)
		if gotTraffic != wantTraffic {
			t.Errorf("%s: traffic %+v, restart walk %+v", name, gotTraffic, wantTraffic)
		}
		for r := 0; r < np; r++ {
			for ps := 0; ps < npasses-1; ps++ {
				where := fmt.Sprintf("%s rank %d %s", name, r, passNames[ps])
				g, w := got[r].ctr[ps], want[r].ctr[ps]
				gp, wp := got[r].park[ps], want[r].park[ps]
				if wp.Rewalked != 0 {
					t.Fatalf("%s: the reference counted rewalked visits", where)
				}
				if g != w || gp.Deferred != wp.Deferred || gp.Requests != wp.Requests {
					t.Errorf("%s: counters %+v %+v, restart walk %+v %+v", where, g, gp, w, wp)
				}
				if got[r].rounds[ps] != want[r].rounds[ps] || got[r].remote[ps] != want[r].remote[ps] {
					t.Errorf("%s: %d rounds / %d imported cells, restart walk %d / %d", where,
						got[r].rounds[ps], got[r].remote[ps], want[r].rounds[ps], want[r].remote[ps])
				}
				sameLists(t, where, ps, got[r], want[r])
			}
			for id, a := range want[r].acc {
				if got[r].acc[id] != a {
					t.Fatalf("%s rank %d: body %d force differs from the restart walk's", name, r, id)
				}
			}
		}
	}
}

// TestPushedWalkMatchesRequests holds the walk as it ships, owners
// pushing before anyone walks, to the same walk fetching every remote
// cell by park/request/resume (the push off): over the same passes plus
// a partial walk, at 2, 4 and 8 ranks, lists match element for element,
// forces and completed-walk visits are bitwise equal, and the pushed
// walk never parks, asks, rewalks or runs a round -- while importing
// at least what the requests fetched.
func TestPushedWalkMatchesRequests(t *testing.T) {
	for _, np := range []int{2, 4, 8} {
		want, _ := runPasses(np, requestWalk, true)
		got, _ := runPasses(np, pushedWalk, true)
		letHeld(t, fmt.Sprintf("np=%d requests", np), want)
		letHeld(t, fmt.Sprintf("np=%d pushed", np), got)
		for r := 0; r < np; r++ {
			var pushed, used uint64
			for ps := 0; ps < npasses; ps++ {
				where := fmt.Sprintf("np=%d rank %d %s", np, r, passNames[ps])
				g, w := got[r].ctr[ps], want[r].ctr[ps]
				if gp := got[r].park[ps]; gp != (hotengine.ParkCounters{}) || got[r].rounds[ps] != 0 {
					t.Errorf("%s: the pushed walk fell back on requests: %d rounds, %+v", where, got[r].rounds[ps], gp)
				}
				if g.Traversals != w.Traversals || g.PP != w.PP || g.PC != w.PC {
					t.Errorf("%s: counters %+v, request walk %+v", where, g, w)
				}
				if got[r].remote[ps] < want[r].remote[ps] {
					t.Errorf("%s: %d cells imported, request walk imported %d", where, got[r].remote[ps], want[r].remote[ps])
				}
				pushed, used = pushed+g.Pushed, used+g.PushUsed
				sameLists(t, where, ps, got[r], want[r])
			}
			// A pass may use what an earlier one over the same imports
			// was sent (SPH gravity after forces), so only the sums
			// are ordered.
			if used == 0 || used > pushed {
				t.Errorf("np=%d rank %d: %d of %d pushed cells used", np, r, used, pushed)
			}
			for id, a := range want[r].acc {
				if got[r].acc[id] != a {
					t.Fatalf("np=%d rank %d: body %d force differs from the request walk's", np, r, id)
				}
			}
		}
	}
}

// TestUnderPushFallsBackOnRequests breaks the push's contract on
// purpose: a TestBound that refuses to open every third cell leaves
// holes in what the owners send. With the phase let fall back on the
// vote/round loop (SetFallBack), the walks that fall into one park, ask
// and resume, so rounds run again -- and lists and forces still match
// the reference bit for bit.
func TestUnderPushFallsBackOnRequests(t *testing.T) {
	for _, np := range []int{2, 4} {
		want, _ := runPasses(np, requestWalk, true)
		got, _ := runPasses(np, underPushed, true)
		letHeld(t, fmt.Sprintf("np=%d under-pushed", np), got)
		rounds := 0
		for r := 0; r < np; r++ {
			for _, ps := range []int{0, 4, 5} { // the gravity passes
				where := fmt.Sprintf("np=%d rank %d %s", np, r, passNames[ps])
				rounds += got[r].rounds[ps]
				if got[r].ctr[ps].Traversals != want[r].ctr[ps].Traversals {
					t.Errorf("%s: %d completed-walk visits, request walk %d", where,
						got[r].ctr[ps].Traversals, want[r].ctr[ps].Traversals)
				}
				sameLists(t, where, ps, got[r], want[r])
			}
			for id, a := range want[r].acc {
				if got[r].acc[id] != a {
					t.Fatalf("np=%d rank %d: body %d force differs from the request walk's", np, r, id)
				}
			}
		}
		if rounds == 0 {
			t.Errorf("np=%d: an under-pushing TestBound never exercised the request rounds", np)
		}
	}
}

// TestUnderPushAborts runs the same broken TestBound as it ships, with
// nothing switched: a pushed phase has no vote to fall back on, so the
// rank whose groups park must abort the world with an
// *UncoveredWalkError naming itself and the phase -- not hang its
// peers, which the stall watchdog would turn into a StallError instead.
func TestUnderPushAborts(t *testing.T) {
	global := ic.Plummer(1500, 1.0, 29)
	n := global.Len()
	for _, np := range []int{2, 4} {
		w := msg.NewWorld(np)
		w.StartWatchdog(msg.WatchdogConfig{Quiet: 5 * time.Second, Out: io.Discard})
		err := w.RunErr(func(c *msg.Comm) {
			local := core.New(0)
			local.EnableDynamics()
			for i := c.Rank() * n / np; i < (c.Rank()+1)*n/np; i++ {
				local.AppendFrom(global, i)
			}
			p := &colPhysics{}
			e := hotengine.New[vec.V3, cols](c, local, p, hotengine.Config{
				MAC:    grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true},
				Bucket: 8,
			})
			p.e = e
			e.Exchange()
			g := &gravWalk{p: p, lists: map[keys.Key][]uint64{}}
			e.WalkGroups("walk", &underPush{g}, g.eval)
		})
		if err == nil {
			t.Fatalf("np=%d: an under-pushed walk completed", np)
		}
		var u *hotengine.UncoveredWalkError
		if !errors.As(err, &u) {
			t.Fatalf("np=%d: cause %v, want an *UncoveredWalkError", np, err.Cause)
		}
		if u.Rank != err.Rank || u.Phase != "walk" || u.Parked <= 0 {
			t.Errorf("np=%d: %+v from a world aborted by rank %d, want that rank, phase \"walk\" and parked groups", np, *u, err.Rank)
		}
		t.Logf("np=%d: %v", np, u)
	}
}

// clumps is a clustered IC: half the bodies uniform in the unit cube,
// half in two tight clumps, so the tree is deep where they are and
// shallow elsewhere and ranks own very different volumes.
func clumps(n int, seed int64) *core.System {
	rng := rand.New(rand.NewSource(seed))
	sys := core.New(n)
	sys.EnableDynamics()
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0, 1:
			sys.Pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		case 2:
			sys.Pos[i] = vec.V3{X: 0.3 + 0.02*rng.NormFloat64(), Y: 0.7 + 0.02*rng.NormFloat64(), Z: 0.2 + 0.02*rng.NormFloat64()}
		default:
			sys.Pos[i] = vec.V3{X: 0.8 + 0.005*rng.NormFloat64(), Y: 0.1 + 0.005*rng.NormFloat64(), Z: 0.6 + 0.005*rng.NormFloat64()}
		}
		sys.Mass[i] = 1 / float64(n)
		sys.ID[i] = int64(i)
	}
	return sys
}

// TestIndexDescentMatchesHashDescent holds the descent as it ships --
// below a rank's own branches a child is the next entry of the table,
// found by index -- to the paper's, a stack of keys and a hash probe
// per cell (SetHashDescent): on a Plummer sphere and a clustered IC, at
// 1, 2 and 8 ranks, over the traversal shapes of gravity, vortex and
// SPH (density, forces, gravity) and a partial walk, pushed and by
// request rounds, every group's list is identical element for element
// (so the pair counts of the range queries are), every counter --
// completed-walk visits, rewalked visits, PP, PC, deferrals, requests,
// cells pushed and used -- every round and import count, the traffic,
// and the gravity forces bit for bit.
func TestIndexDescentMatchesHashDescent(t *testing.T) {
	ics := []struct {
		name string
		sys  *core.System
	}{{"plummer", ic.Plummer(1500, 1.0, 31)}, {"clustered", clumps(1500, 32)}}
	for _, c := range ics {
		for _, np := range []int{1, 2, 8} {
			for _, mode := range []walkMode{requestWalk, pushedWalk} {
				name := fmt.Sprintf("%s np=%d mode=%d", c.name, np, mode)
				want, wantTraffic := runPassesOn(c.sys, np, mode, true, true)
				got, gotTraffic := runPassesOn(c.sys, np, mode, true, false)
				if gotTraffic != wantTraffic {
					t.Errorf("%s: traffic %+v, hash descent %+v", name, gotTraffic, wantTraffic)
				}
				var visits, rewalked uint64
				for r := 0; r < np; r++ {
					for ps := 0; ps < npasses; ps++ {
						where := fmt.Sprintf("%s rank %d %s", name, r, passNames[ps])
						if got[r].ctr[ps] != want[r].ctr[ps] || got[r].park[ps] != want[r].park[ps] {
							t.Errorf("%s: counters %+v %+v, hash descent %+v %+v", where,
								got[r].ctr[ps], got[r].park[ps], want[r].ctr[ps], want[r].park[ps])
						}
						if got[r].rounds[ps] != want[r].rounds[ps] || got[r].remote[ps] != want[r].remote[ps] {
							t.Errorf("%s: %d rounds / %d imported cells, hash descent %d / %d", where,
								got[r].rounds[ps], got[r].remote[ps], want[r].rounds[ps], want[r].remote[ps])
						}
						sameLists(t, where, ps, got[r], want[r])
						visits += got[r].ctr[ps].Traversals
						rewalked += got[r].park[ps].Rewalked
					}
					for id, a := range want[r].acc {
						if got[r].acc[id] != a {
							t.Fatalf("%s rank %d: body %d force differs from the hash descent's", name, r, id)
						}
					}
				}
				if visits == 0 || (np > 1 && mode == requestWalk && rewalked == 0) {
					t.Errorf("%s: vacuous: %d completed-walk visits, %d rewalked", name, visits, rewalked)
				}
			}
		}
	}
}

// BenchmarkWalkUnderLatency prices the two ways a walk phase gets its
// remote cells, on the same gravity walk (np = 4, 20000-body Plummer
// sphere) with every message held in flight for up to 40 ms: pushed by
// their owners before anyone walks, or requested on a miss, round after
// round. walk_s/op is the slowest rank's walk phase, rounds/op its
// request rounds.
func BenchmarkWalkUnderLatency(b *testing.B) {
	for _, mode := range []struct {
		name string
		push bool
	}{{"push", true}, {"requests", false}} {
		b.Run(mode.name, func(b *testing.B) {
			const n, np = 20000, 4
			var walkSec float64
			var rounds int
			for i := 0; i < b.N; i++ {
				w := msg.NewWorld(np)
				w.SetInjector(&msg.Injector{Seed: 7, LatencyProb: 1, MaxLatency: 40 * time.Millisecond})
				var mu sync.Mutex
				walkSec, rounds = 0, 0
				w.Run(func(c *msg.Comm) {
					global := ic.Plummer(n, 1.0, 11)
					local := core.New(0)
					local.EnableDynamics()
					for j := c.Rank() * n / np; j < (c.Rank()+1)*n/np; j++ {
						local.AppendFrom(global, j)
					}
					p := &colPhysics{}
					e := hotengine.New[vec.V3, cols](c, local, p, hotengine.Config{
						MAC:    grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-3, Quad: true},
						Bucket: 16,
					})
					e.SetPush(mode.push)
					p.e = e
					e.Exchange()
					v := &gravWalk{p: p, lists: map[keys.Key][]uint64{}}
					e.WalkGroups("walk", v, func(_ keys.Key, g *tree.Cell, ctr *diag.Counters) {
						sys, lo, hi := e.Sys, g.First, g.First+g.N
						v.w.Evaluate(sys.Pos[lo:hi], sys.Mass[lo:hi], sys.Acc[lo:hi], sys.Pot[lo:hi], 1e-6, true, ctr)
					})
					mu.Lock()
					defer mu.Unlock()
					walkSec = max(walkSec, e.Timer.Get("walk").Seconds())
					rounds = max(rounds, e.Rounds)
				})
			}
			b.ReportMetric(walkSec, "walk_s/op")
			b.ReportMetric(float64(rounds), "rounds/op")
		})
	}
}
