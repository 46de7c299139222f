package tree

import (
	"math/bits"

	"repro/internal/keys"
	"repro/internal/vec"
)

// Unfetched is the First of a record whose bodies have not arrived: a
// leaf another rank owns, known from its branch record alone.
const Unfetched = int32(-1 << 30)

// LeafTaker receives the leaves a descent opens, in root-DFS order, and
// in their place the group's own cell, whole (Descent.Own).
type LeafTaker interface {
	Leaf(c *Cell)
}

// Pruner is a cell test other than the multipole acceptance criterion:
// a range query's prune. A descent runs it against the one-sphere bound
// of its group.
type Pruner interface {
	TestBound(c *Cell, b *Bound) Action
}

// Descent is the state of one group's traversal, reused from group to
// group: the sphere cells are measured against, the batch of accepted
// cells, what the traversal missed, and the index stack of Descend. Set
// Leaves (and Prune, for a range query) once, Aim it at each group, then
// Descend from the root, or from wherever an earlier traversal stopped.
type Descent struct {
	// Leaves takes the leaves an emitting descent opens.
	Leaves LeafTaker
	// Prune, when non-nil, is the cell test in place of Classify.
	Prune Pruner
	// Accepted is the batch of cells accepted since Aim, in root-DFS
	// order. Their moments are gathered from it in one pass when the
	// traversal is over, rather than cell by cell through a callback.
	Accepted []*Cell
	// Index, when set, has the descent record in At the table entry of
	// each of Accepted, for a caller that keeps a payload per entry.
	Index bool
	At    []int32
	// Missed holds, since Aim, the entries of the opened cells whose
	// children (a leaf: whose bodies) are not in the table, in root-DFS
	// order. Only a table another rank's cells land in has any.
	Missed []int32
	// Entered counts the cells first made reachable by opening a cell
	// whose Kids was negative (Cell.Kids). The caller drains it.
	Entered uint64

	own    keys.Key
	gc     vec.V3
	gr     float64
	sphere Bound // (gc, gr) as Prune takes it
	stack  []int32
}

// Aim points the descent at group own's sphere and drops the batch.
func (d *Descent) Aim(own keys.Key, gc vec.V3, gr float64) {
	d.own, d.gc, d.gr = own, gc, gr
	d.sphere = Bound{Lo: gc, Hi: gc, R: gr, Any: true}
	d.Drop()
}

// Drop empties the batch and forgets its pointers: a stale one, in the
// buffer past the length of later, shorter batches or left behind when
// the walks are over, would keep a whole earlier table reachable.
func (d *Descent) Drop() {
	clear(d.Accepted)
	d.Accepted, d.At, d.Missed = d.Accepted[:0], d.At[:0], d.Missed[:0]
}

// Own reports whether c is the group's own cell. A traversal hands it
// to Leaves whole and tests nothing at or below it: a one-body sub-cell
// that sets the sphere's radius has RCrit = 0 and d = gr up to rounding,
// and accepted, the body would attract itself as a monopole.
func (d *Descent) Own(c *Cell) bool { return c.Key == d.own }

// Test classifies one cell, never the group's Own, against Aim's group.
func (d *Descent) Test(c *Cell) Action {
	if d.Prune != nil {
		return d.Prune.TestBound(c, &d.sphere)
	}
	return Classify(c, d.gc, d.gr)
}

// TestBound is Test made conservative over bound b, as owners run it to
// push: Prune's TestBound, or ClassifyBound.
func (d *Descent) TestBound(c *Cell, b *Bound) Action {
	if d.Prune != nil {
		return d.Prune.TestBound(c, b)
	}
	return ClassifyBound(c, b)
}

// Descend runs the group's DFS over the n sibling cells from entry
// from of t's table and everything below them, and returns the number
// of cells it visited. Children are Kids, Kids+1, ... in the table's
// entries, pushed in octant order and popped in reverse, the order a
// stack of keys gives. While emit is set, accepted cells are appended to
// d.Accepted and opened leaves, and the group's own cell, handed to
// d.Leaves; a descent that only discovers what a group will open leaves
// both alone. An opened cell whose children have not landed, or a leaf
// whose bodies have not, is put on d.Missed and not descended (nor, a
// leaf, counted as visited), and emission stops there: a list with a
// hole is never evaluated.
func (t *Tree) Descend(d *Descent, from, n int32, emit bool) (visits uint64) {
	cells, prune, own, gc, gr := t.Cells, d.Prune, d.own, d.gc, d.gr
	stack := d.stack[:0]
	for i := from; i < from+n; i++ {
		stack = append(stack, i)
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		c := cells.At(int(i))
		stack = stack[:len(stack)-1]
		visits++
		if c.Key == own {
			if emit {
				d.Leaves.Leaf(c)
			}
			continue
		}
		var a Action
		if prune == nil {
			a = Classify(c, gc, gr) // inlined: no call per visit
		} else {
			a = prune.TestBound(c, &d.sphere)
		}
		switch {
		case a == Skip:
		case a == Accept:
			if emit {
				d.Accepted = append(d.Accepted, c)
				if d.Index {
					d.At = append(d.At, i)
				}
			}
		case c.Leaf:
			if c.Kids < 0 { // another rank's leaf, opened for the first time
				if c.First == Unfetched {
					visits--
					d.Missed, emit = append(d.Missed, i), false
					continue
				}
				c.Kids = 0
				d.Entered++
			}
			if emit {
				d.Leaves.Leaf(c)
			}
		default:
			k := c.Kids
			if k <= 0 {
				if k == 0 { // the children have not landed
					d.Missed, emit = append(d.Missed, i), false
					continue
				}
				k = -k
				c.Kids = k
				d.Entered += uint64(bits.OnesCount8(c.ChildMask))
			}
			for m := c.ChildMask; m != 0; m &= m - 1 {
				stack = append(stack, k)
				k++
			}
		}
	}
	d.stack = stack
	return visits
}
