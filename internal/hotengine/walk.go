package hotengine

import (
	"math/bits"
	"time"

	"repro/internal/diag"
	"repro/internal/keys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Visitor is the physics side of a group traversal. The engine owns
// the descent, the test and miss collection; the visitor takes the
// interactions. The test is the multipole acceptance criterion (MAC)
// against the group's bounding sphere (tree.GroupSphere, tree.Classify
// inline, tree.ClassifyBound for the push) unless the visitor is a
// RangeQuery. All methods run on the rank goroutine, one traversal at a
// time, so a visitor may keep the current group's state in its fields.
type Visitor[X any] interface {
	// Begin starts a traversal for group gk, measured by a sphere about
	// centre, resetting the visitor's evaluation state. A group may begin
	// several times before it completes: the optimistic first attempt,
	// discovery descents, and the final emitting walk.
	Begin(gk keys.Key, centre vec.V3)
	// Leaves takes the leaves the emitting traversal opened, and in its
	// place the group's own cell, whole and untested (tree.Descent.Own);
	// Cells takes the cells that traversal accepted, with their payloads.
	// Each is one batch in root-DFS order, handed over once the
	// traversal has completed, Leaves first; a traversal that missed
	// hands over nothing.
	Leaves(cells []*tree.Cell)
	Cells(cells []*tree.Cell, xs []X)
}

// RangeQuery is a visitor whose test is not the MAC, as a range query
// prunes on geometry (the SPH neighbour search). Asked once per phase.
type RangeQuery interface {
	// Sphere returns the sphere cells are measured against for group
	// g. It must be a pure function of the group -- discovery descents
	// replay the test to find which cells the emitting walk will open --
	// and a rank publishes the tree.Bound of its groups' spheres.
	Sphere(g *tree.Cell) (c vec.V3, r float64)
	// TestBound is the test, made conservative over a peer's bound: it
	// must return Open for every cell the test could open for a group
	// whose sphere has its centre in b's box and a radius of at most
	// b.R. Over a group's own sphere it is the traversal's test; owners
	// run it down their own trees to decide what to push.
	TestBound(c *tree.Cell, b *tree.Bound) tree.Action
}

// EvalFn evaluates one completed group's interactions from the state
// its emitting walk just left in the visitor. It runs on the rank
// goroutine right after that walk; ctr is the engine's Counters.
type EvalFn func(gk keys.Key, g *tree.Cell, ctr *diag.Counters)

// ParkCounters tallies the request path. Only a walk with the push off
// parks (behind the push a parked group aborts the world), so these stay
// zero in every production run and no report carries them; the tests
// and the push-off benchmarks read them from Engine.Park.
type ParkCounters struct {
	Rewalked uint64 // visits that built no list: missed first attempts, discovery descents (never in Counters.Traversals)
	Deferred uint64 // groups context-switched waiting on remote data
	Requests uint64 // remote cell requests issued
}

// suspended is the walk state of one group while it is parked: the
// frontier its last traversal stopped at (the LET entries of the cells
// it opened whose children, or a leaf's bodies, had not landed: each
// one family in flight), how many of those are still in flight, and
// when it was first parked (the trace's stall span). Nothing list-sized is
// kept; see DESIGN.md "Suspended walks". The frontier buffer is reused
// by whichever group has the same index in later phases.
type suspended struct {
	frontier []int32
	wait     int32
	since    time.Time
}

// waiter is one (miss, waiting group) pair, a node of that miss's list
// in the engine's waiters arena; waitList is what keyWaiters holds per
// in-flight family, under its parent's key (a leaf branch: its own).
// Lists append at the tail so groups wake in the order they parked.
type waiter struct{ group, next int32 }

type waitList struct{ head, tail int32 }

// descend runs tree.Descend over the LET for the current group (or the
// hash-probe ablation in its place, in tests).
func (e *Engine[X, B]) descend(from, n int32, emit bool) uint64 {
	if e.hashDescent != nil {
		return e.hashDescent(from, n, emit)
	}
	return e.let.Descend(&e.desc, from, n, emit)
}

// attempt is the first walk of group gi (an index into Local.Groups):
// emitting from the root, it completes outright when every cell it
// needs is already here (always on one rank, and wherever the push
// covered the group). Otherwise its visits are charged to Park.Rewalked and
// the group is parked on the cells it missed.
func (e *Engine[X, B]) attempt(gi int32) {
	gk := e.Local.Groups[gi]
	g := e.Local.Cell(gk)
	if e.emitFromRoot(gk, g) {
		return
	}
	e.nparked++
	if e.Trace != nil {
		e.groups[gi].since = time.Now()
	}
	e.park(gi)
}

// setVisitor makes v the visitor of the traversals that follow: it takes
// their batches, and if it is a RangeQuery its TestBound is their test.
func (e *Engine[X, B]) setVisitor(v Visitor[X]) {
	e.query, _ = v.(RangeQuery)
	e.curWalk, e.desc.Prune = v, e.query
}

// sphere is what group g is measured by: q's sphere, or for a MAC walk
// (q nil) the group's bounding sphere.
func (e *Engine[X, B]) sphere(q RangeQuery, g *tree.Cell) (vec.V3, float64) {
	if q != nil {
		return q.Sphere(g)
	}
	return tree.GroupSphere(e.Sys.Pos[g.First : g.First+g.N])
}

// begin starts a traversal of group g: the descent is aimed at the
// group's sphere, its batch emptied, and the visitor resets its state.
func (e *Engine[X, B]) begin(gk keys.Key, g *tree.Cell) {
	gc, gr := e.sphere(e.query, g)
	e.curWalk.Begin(gk, gc)
	e.desc.Aim(gk, gc, gr)
}

// emitFromRoot runs an emitting walk of g from the root and evaluates
// the group if it completed; on a miss it charges the visits to
// Park.Rewalked and leaves the misses on e.desc.Missed.
func (e *Engine[X, B]) emitFromRoot(gk keys.Key, g *tree.Cell) bool {
	e.begin(gk, g)
	n := e.descend(0, 1, true)
	if len(e.desc.Missed) > 0 {
		e.Park.Rewalked += n
		return false
	}
	e.Counters.Traversals += n
	d := &e.desc
	if e.hasExtra {
		e.extras = e.extras[:0]
		for _, i := range d.At {
			e.extras = append(e.extras, e.letX[i])
		}
	} else {
		e.extras = append(e.extras[:0], make([]X, len(d.Accepted))...)
	}
	e.curWalk.Leaves(d.Opened)
	e.curWalk.Cells(d.Accepted, e.extras)
	if e.curEval != nil {
		e.curEval(gk, g, &e.Counters)
	}
	return true
}

// resume continues a parked group whose frontier has fully arrived:
// a MAC-only discovery descent from each frontier family's block (a
// leaf branch: from its own entry) finds the next layer of missing
// cells (and parks the group again on those), and once nothing is
// missing a single emitting walk from the root builds the list. That walk cannot miss -- imports only grow within a phase --
// and it emits in root-DFS order, the one order every schedule shares,
// which is what keeps forces bitwise independent of when cells arrive.
func (e *Engine[X, B]) resume(gi int32) {
	gk := e.Local.Groups[gi]
	g := e.Local.Cell(gk)
	s := &e.groups[gi]
	e.begin(gk, g)
	for _, i := range s.frontier { // in the order they were missed
		if c := e.let.Cells.At(int(i)); c.Leaf {
			e.Park.Rewalked += e.descend(i, 1, false)
		} else {
			e.Park.Rewalked += e.descend(c.Kids, int32(bits.OnesCount8(c.ChildMask)), false)
		}
	}
	if len(e.desc.Missed) > 0 {
		e.park(gi)
		return
	}
	e.nparked--
	if !e.emitFromRoot(gk, g) {
		panic("hotengine: resumed walk missed a cell below an empty frontier")
	}
	if e.Trace != nil {
		e.Trace.SpanAt("stall", s.since, time.Since(s.since))
	}
}

// park suspends group gi on the cells its traversal just missed --
// the paper's explicit context switch -- and posts requests for those
// no other group is already waiting on.
func (e *Engine[X, B]) park(gi int32) {
	s := &e.groups[gi]
	s.frontier = append(s.frontier[:0], e.desc.Missed...)
	s.wait = int32(len(s.frontier))
	e.Park.Deferred++
	for _, i := range s.frontier {
		c := e.let.Cells.At(int(i))
		n := e.freeWaiter
		if n >= 0 {
			e.freeWaiter = e.waiters[n].next
			e.waiters[n] = waiter{gi, -1}
		} else {
			n = int32(len(e.waiters))
			e.waiters = append(e.waiters, waiter{gi, -1})
		}
		if l, inFlight := e.keyWaiters[c.Key]; inFlight {
			e.waiters[l.tail].next = n
			e.keyWaiters[c.Key] = waitList{l.head, n}
			continue
		}
		// First group to miss it (a requested family keeps its waiters
		// until it lands, after which nothing can miss it).
		e.keyWaiters[c.Key] = waitList{n, n}
		if c.Leaf {
			e.request(c.Key)
		}
		for oct := 7; oct >= 0; oct-- { // the order a stack of keys pops them in
			if c.ChildMask&(1<<uint(oct)) != 0 {
				e.request(c.Key.Child(oct))
			}
		}
	}
}

// request posts one cell request to its owner: the next round sends it.
func (e *Engine[X, B]) request(k keys.Key) {
	e.Park.Requests++
	e.curEng.Post(e.OwnerOf(k), k)
}
