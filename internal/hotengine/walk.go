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
// the descent, cell resolution, the acceptance test and miss
// collection; the visitor says what a group is measured by and takes
// the interactions. All methods run on the rank goroutine, one
// traversal at a time, so a visitor may keep the current group's state
// (its interaction list) in its own fields.
type Visitor[X any] interface {
	// Begin starts a traversal for group g (key gk), resetting the
	// visitor's evaluation state. A group may begin several times
	// before it completes: the optimistic first attempt, discovery
	// descents, and the final emitting walk.
	Begin(gk keys.Key, g *tree.Cell)
	// Sphere returns the sphere cells are measured against for group
	// g. It must be a pure function of the group -- discovery descents
	// replay the test to find which cells the emitting walk will open --
	// and a rank publishes the tree.Bound of its groups' spheres.
	Sphere(g *tree.Cell) (c vec.V3, r float64)
	// MAC reports whether a cell is Skipped, Accepted (its moments one
	// interaction) or Opened by the multipole acceptance criterion
	// against Sphere: tree.Classify, which the engine runs itself, with
	// no call into the visitor. Otherwise the test is TestBound over the
	// group's own sphere, a range query's prune. Asked once per walk
	// phase.
	MAC() bool
	// TestBound is the test made conservative over a peer's bound: it
	// must return Open for every cell the test could open for a group
	// whose sphere has its centre in b's box and a radius of at most
	// b.R. Owners run it down their own trees to decide what to push.
	TestBound(c *tree.Cell, b *tree.Bound) tree.Action
	// Leaf takes an opened leaf's bodies, as the emitting traversal
	// reaches it, and likewise the group's own cell, whole and untested
	// (tree.Descent.Own); Cells takes the cells that traversal accepted,
	// with their payloads, in one batch when it has completed. Both are
	// in root-DFS order.
	Leaf(c *tree.Cell)
	Cells(cells []*tree.Cell, xs []X)
}

// EvalFn evaluates one completed group's interactions from the state
// its emitting walk just left in the visitor. It runs on the rank
// goroutine right after that walk; ctr is the engine's Counters.
type EvalFn func(gk keys.Key, g *tree.Cell, ctr *diag.Counters)

// table names the store a cell's children live in. Carrying it down
// the recursion is what makes a visit above or outside the local tree
// cost one hash probe, and one below it none: where a cell lives
// follows from where its parent did.
type table uint8

const (
	inTop      table = iota // shared top tree: the branches and everything above them
	inLocal                 // this rank's tree, below its own branches: descended by index, never stacked
	inImported              // fetched cells, below other ranks' branches
)

type entry struct {
	k keys.Key
	t table
}

// miss is one unit of a traversal's frontier. Cells are requested, and
// arrive, as whole families -- the first group to open a cell asks for
// all of its children at once, to one owner, so they come back in one
// reply batch -- and a family is one miss: k is the parent, mask its
// missing children. mask 0 means k itself is missing: a remote leaf
// branch, known from the top tree, whose bodies have to be fetched.
type miss struct {
	k    keys.Key
	mask uint8
}

// suspended is the walk state of one group while it is parked: the
// frontier its last traversal stopped at, how many of its misses are
// still in flight, and when it was first parked (stall observation).
// Nothing list-sized is kept; see DESIGN.md "Suspended walks". The
// frontier buffer is reused by whichever group has the same index in
// later phases.
type suspended struct {
	frontier []miss
	wait     int32
	since    time.Time
}

// waiter is one (miss, waiting group) pair, a node of that miss's list
// in the engine's waiters arena; waitList is what keyWaiters holds per
// in-flight miss, under miss.k. Lists append at the tail so groups wake
// in the order they parked.
type waiter struct{ group, next int32 }

type waitList struct{ head, tail int32 }

// traverse runs one DFS from the entries on e.stack for the current
// visitor, returning the number of cells it resolved. The stack holds
// only what has to be looked up by name: the top tree and the imported
// cells. Opening one of this rank's own branches hands the whole
// subtree to tree.Descend -- it is wholly local, so it is traversed,
// in the same order, before anything else on the stack. Missing cells
// are collected on e.missing and the traversal carries on past them, so
// one round batches every request the group can discover; emission
// (the visitor's Leaf, the batch for its Cells) stops at the first
// miss, since a list with a hole is never evaluated.
func (e *Engine[X, B]) traverse(emit bool) (visits uint64) {
	d := &e.desc
	e.missing = e.missing[:0]
	for len(e.stack) > 0 {
		ent := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		var n *node[X]
		if ent.t == inTop {
			n = e.top.Ptr(ent.k)
			if n.Cell.First == sentinelUnfetched && d.Test(&n.Cell) == tree.Open {
				// A remote leaf branch some group has to open: the copy
				// with bodies is an import. Skipped or accepted, the top
				// tree's moments (the same off the wire) do.
				n = e.importedPtr(ent.k)
			}
		} else {
			n = e.importedPtr(ent.k)
		}
		if n == nil {
			e.noteMiss(ent)
			emit = false
			continue
		}
		c := &n.Cell
		visits++
		if d.Own(c) { // a whole branch: the top tree's copy has its body range
			if emit {
				d.Leaves.Leaf(c)
			}
			continue
		}
		switch a := d.Test(c); {
		case a == tree.Skip:
		case a == tree.Accept:
			if emit {
				d.Accepted = append(d.Accepted, c)
				e.extras = append(e.extras, n.Extra)
			}
		case c.Leaf:
			if emit {
				d.Leaves.Leaf(c)
			}
		case n.kids == inLocal:
			visits += e.descendLocal(c, emit)
		default:
			for oct := 0; oct < 8; oct++ {
				if c.ChildMask&(1<<uint(oct)) != 0 {
					e.stack = append(e.stack, entry{ent.k.Child(oct), n.kids})
				}
			}
		}
	}
	return visits
}

// descendLocal traverses the local subtree below c, one of this rank's
// branches as the top tree holds it, and pairs the cells the descent
// accepted with their payloads.
func (e *Engine[X, B]) descendLocal(c *tree.Cell, emit bool) uint64 {
	if e.hashDescent != nil {
		return e.hashDescent(c, emit)
	}
	d := &e.desc
	visits := e.Local.Descend(d, c.Kids, int32(bits.OnesCount8(c.ChildMask)), emit)
	fresh := d.Accepted[len(e.extras):]
	if !e.hasExtra {
		e.extras = append(e.extras, make([]X, len(fresh))...)
		return visits
	}
	for _, c := range fresh {
		e.extras = append(e.extras, e.Phys.Extra(c))
	}
	return visits
}

// noteMiss records a missing cell on e.missing: a remote leaf branch
// (reached through the top tree) on its own, anything else folded into
// its family's miss -- siblings pop off the stack back to back.
func (e *Engine[X, B]) noteMiss(ent entry) {
	if ent.t == inTop {
		e.missing = append(e.missing, miss{k: ent.k})
		return
	}
	p, bit := ent.k.Parent(), uint8(1)<<uint(ent.k.Octant())
	if n := len(e.missing); n > 0 && e.missing[n-1].k == p {
		e.missing[n-1].mask |= bit
	} else {
		e.missing = append(e.missing, miss{p, bit})
	}
}

// importedPtr looks up an imported cell, marking a pushed cell's first
// resolution as a push hit.
func (e *Engine[X, B]) importedPtr(k keys.Key) *node[X] {
	in := e.imported.Ptr(k)
	if in != nil && in.Pushed {
		in.Pushed = false
		e.Counters.PushUsed++
	}
	return in
}

// attempt is the first walk of group gi (an index into Local.Groups):
// emitting from the root, it completes outright when every cell it
// needs is already here (always on one rank, and wherever the push
// covered the group). Otherwise its visits are charged to Rewalked and
// the group is parked on the cells it missed.
func (e *Engine[X, B]) attempt(gi int32) {
	gk := e.Local.Groups[gi]
	g := e.Local.Cell(gk)
	if e.emitFromRoot(gk, g) {
		return
	}
	e.nparked++
	if e.observe {
		e.groups[gi].since = time.Now()
	}
	e.park(gi)
}

// setVisitor makes v the visitor of the traversals that follow: it takes
// their leaves, and its TestBound is their test unless it asks for the
// MAC.
func (e *Engine[X, B]) setVisitor(v Visitor[X]) {
	e.curWalk = v
	e.desc.Leaves, e.desc.Prune = v, nil
	if !v.MAC() {
		e.desc.Prune = v
	}
}

// begin starts a traversal of group g: the visitor resets its state
// and the descent is aimed at the group's sphere, its batch emptied.
func (e *Engine[X, B]) begin(gk keys.Key, g *tree.Cell) {
	e.curWalk.Begin(gk, g)
	gc, gr := e.curWalk.Sphere(g)
	e.desc.Aim(gk, gc, gr)
	e.extras = e.extras[:0]
}

// emitFromRoot runs an emitting walk of g from the root and evaluates
// the group if it completed; on a miss it charges the visits to
// Rewalked and leaves the misses on e.missing.
func (e *Engine[X, B]) emitFromRoot(gk keys.Key, g *tree.Cell) bool {
	e.begin(gk, g)
	e.stack = append(e.stack[:0], entry{keys.Root, inTop})
	n := e.traverse(true)
	if len(e.missing) > 0 {
		e.Counters.Rewalked += n
		return false
	}
	e.Counters.Traversals += n
	e.curWalk.Cells(e.desc.Accepted, e.extras)
	if e.curEval != nil {
		e.curEval(gk, g, &e.Counters)
	}
	return true
}

// resume continues a parked group whose frontier has fully arrived:
// a MAC-only discovery descent from the frontier cells finds the next
// layer of missing cells (and parks the group again on those), and once
// nothing is missing a single emitting walk from the root builds the
// list. That walk cannot miss -- imports only grow within a phase --
// and it emits in root-DFS order, the one order every schedule shares,
// which is what keeps forces bitwise independent of when cells arrive.
func (e *Engine[X, B]) resume(gi int32) {
	gk := e.Local.Groups[gi]
	g := e.Local.Cell(gk)
	s := &e.groups[gi]
	e.begin(gk, g)
	e.stack = e.stack[:0]
	for i := len(s.frontier) - 1; i >= 0; i-- { // popped in the order they were missed
		f := s.frontier[i]
		if f.mask == 0 {
			e.stack = append(e.stack, entry{f.k, inTop})
		}
		for oct := 0; oct < 8; oct++ {
			if f.mask&(1<<uint(oct)) != 0 {
				e.stack = append(e.stack, entry{f.k.Child(oct), inImported})
			}
		}
	}
	e.Counters.Rewalked += e.traverse(false)
	if len(e.missing) > 0 {
		e.park(gi)
		return
	}
	e.nparked--
	if !e.emitFromRoot(gk, g) {
		panic("hotengine: resumed walk missed a cell below an empty frontier")
	}
	if e.observe {
		d := time.Since(s.since)
		e.Stalls.Observe(uint64(d.Nanoseconds()))
		e.Trace.SpanAt("stall", s.since, d)
	}
}

// park suspends group gi on the cells its traversal just missed --
// the paper's explicit context switch -- and posts requests for those
// no other group is already waiting on.
func (e *Engine[X, B]) park(gi int32) {
	s := &e.groups[gi]
	s.frontier = append(s.frontier[:0], e.missing...)
	s.wait = int32(len(s.frontier))
	e.Counters.Deferred++
	for _, f := range s.frontier {
		n := e.freeWaiter
		if n >= 0 {
			e.freeWaiter = e.waiters[n].next
			e.waiters[n] = waiter{gi, -1}
		} else {
			n = int32(len(e.waiters))
			e.waiters = append(e.waiters, waiter{gi, -1})
		}
		if l, inFlight := e.keyWaiters[f.k]; inFlight {
			e.waiters[l.tail].next = n
			e.keyWaiters[f.k] = waitList{l.head, n}
			continue
		}
		// First group to miss it (a requested family keeps its waiters
		// until it lands, after which nothing can miss it).
		e.keyWaiters[f.k] = waitList{n, n}
		if f.mask == 0 {
			e.request(f.k)
		}
		for oct := 7; oct >= 0; oct-- { // the order the traversal missed them in
			if f.mask&(1<<uint(oct)) != 0 {
				e.request(f.k.Child(oct))
			}
		}
	}
}

// request posts one cell request to its owner: the next round sends it.
func (e *Engine[X, B]) request(k keys.Key) {
	e.Counters.Requests++
	e.curEng.Post(e.OwnerOf(k), k)
}
