package hotengine

import (
	"reflect"

	"repro/internal/msg"
	"repro/internal/tree"
)

// boundBytes is the packed wire size of one rank's tree.Bound.
var boundBytes = packedSize(reflect.TypeOf(tree.Bound{}))

// walkBound reduces the spheres of the groups active admits (nil means
// all) in a walk of q to the one bound this rank publishes.
func (e *Engine[X]) walkBound(q RangeQuery, active func(g *tree.Cell) bool) (b tree.Bound) {
	for _, gk := range e.Local.Groups {
		if g := e.Local.Cell(gk); active == nil || active(g) {
			b.Add(e.sphere(q, g))
		}
	}
	return b
}

// push runs phase 3 for the groups active admits: the owner of a cell,
// not the rank that walks into it, decides who could need it and sends
// it before anyone walks. One allgather of the ranks' bounds, unless
// the branch exchange carried them (ExchangeFor), one descent of the
// local tree per peer with the current walk's test made conservative
// over the peer's bound (tree.Descent.TestBound), one all-to-all of the
// packed cells, imported as each batch lands. What arrives is a
// superset of what the walks resolve, and they still apply the exact
// test, so no list changes; a cell the bound did not cover is missed,
// which aborts the phase (DESIGN.md "Push-first walk"). Leaf bodies
// travel in the engine's snapshot of the columns: the owner goes on to
// write those while a peer's batch may still be in flight.
func (e *Engine[X]) push(active func(g *tree.Cell) bool) {
	pubs := e.pubs
	e.pubs = nil // its bounds describe the first walk only
	switch {
	case e.C.Size() == 1:
		return
	case e.pushOff:
		e.snapshot() // for the replies: the last phase ended on a vote, after every import
		return
	}
	t0 := e.Trace.Now()
	if pubs == nil {
		pubs = msg.Allgather(e.C, published[X]{bound: e.walkBound(e.query, active)}, boundBytes)
	}
	// Every peer entered that allgather (or the branch exchange's)
	// after its last push exchange returned, with this rank's last
	// batch imported, so the snapshot may be written over.
	e.snapshot()
	// Fresh batches every phase: reusing them measured no faster, and
	// the receivers, who copy out as they import, are the last to hold them.
	batches := make([][]Wire[X], len(pubs))
	for r := range pubs {
		var send []Wire[X]
		if b := &pubs[r].bound; b.Any && r != e.C.Rank() {
			for _, bk := range e.branches {
				// Every rank holds a branch's record, a leaf's without
				// its bodies.
				switch c := e.Local.Cell(bk); {
				case e.desc.TestBound(c, b) != tree.Open:
				case c.Leaf:
					send = append(send, e.wireOf(bk, c))
				default:
					send = e.packChildren(send, b, c)
				}
			}
		}
		batches[r] = send
	}
	msg.AlltoallvFunc(e.C, batches, nil, e.wireBytes, nil, func(_ int, ws []Wire[X]) {
		for i := range ws {
			e.importCell(ws[i], true)
		}
	})
	e.Trace.Span("push", t0)
}

// packChildren appends the children of local cell c, which a walk
// inside b could open, and below each child that it could open in turn,
// that child's. A leaf's record carries its bodies, as a reply's would.
func (e *Engine[X]) packChildren(dst []Wire[X], b *tree.Bound, c *tree.Cell) []Wire[X] {
	for i, m := int(c.Kids), c.ChildMask; m != 0; i, m = i+1, m&(m-1) {
		cc := e.Local.Cells.At(i)
		dst = append(dst, e.wireOf(cc.Key, cc))
		if !cc.Leaf && e.desc.TestBound(cc, b) == tree.Open {
			dst = e.packChildren(dst, b, cc)
		}
	}
	return dst
}
