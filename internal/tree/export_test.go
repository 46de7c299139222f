package tree

import (
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/keys"
	"repro/internal/vec"
)

// WalkFused is the original single-phase traversal: it evaluates each
// accepted interaction as it is found, accumulating into acc and pot
// (parallel slices of gpos, NOT zeroed here). It is the reference the
// list walk (Walk + Evaluate) is tested against.
func (w *Walker) WalkFused(src Source, groupKey keys.Key, gpos []vec.V3, acc []vec.V3, pot []float64, eps2 float64, quad bool, ctr *diag.Counters) (missing []keys.Key) {
	gc, gr := GroupSphere(gpos)
	w.stack = w.stack[:0]
	w.missing = w.missing[:0]
	w.stack = append(w.stack, src.Root())
	for len(w.stack) > 0 {
		k := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		c := src.Cell(k)
		if c == nil {
			w.missing = append(w.missing, k)
			continue
		}
		ctr.Traversals++
		if c.Mp.M == 0 {
			continue // empty cell contributes nothing
		}
		d := c.Mp.COM.Sub(gc).Norm()
		if d-gr > c.RCrit && d > gr {
			n := grav.M2P(gpos, acc, pot, &c.Mp, quad, eps2)
			ctr.PC += n
			if quad {
				ctr.QuadPC += n
			}
			continue
		}
		if c.Leaf {
			spos, smass := src.LeafBodies(c)
			if c.Key == groupKey {
				ctr.PP += grav.PPSelf(gpos, smass, acc, pot, eps2)
			} else {
				ctr.PP += grav.PPTile(gpos, acc, pot, spos, smass, eps2)
			}
			continue
		}
		for oct := 0; oct < 8; oct++ {
			if c.ChildMask&(1<<uint(oct)) != 0 {
				w.stack = append(w.stack, k.Child(oct))
			}
		}
	}
	if len(w.missing) > 0 {
		return w.missing
	}
	return nil
}

// GravityFused is the original fused-walk evaluation (traversal and
// kernels interleaved, AoS accumulators): the same interaction counts
// as Gravity and the same forces to roundoff.
func (t *Tree) GravityFused(eps2 float64) diag.Counters {
	var ctr diag.Counters
	var w Walker
	sys := t.Sys
	for _, gk := range t.Groups {
		g := t.Cell(gk)
		lo, hi := g.First, g.First+g.N
		for i := lo; i < hi; i++ {
			sys.Acc[i] = vec.V3{}
			sys.Pot[i] = 0
		}
		before := ctr.PP + ctr.PC
		if m := w.WalkFused(t, gk, sys.Pos[lo:hi], sys.Acc[lo:hi], sys.Pot[lo:hi], eps2, t.MAC.Quad, &ctr); m != nil {
			panic("tree: serial walk reported missing cells")
		}
		if g.N > 0 {
			per := float64(ctr.PP+ctr.PC-before) / float64(g.N)
			for i := lo; i < hi; i++ {
				sys.Work[i] = per
			}
		}
	}
	return ctr
}
