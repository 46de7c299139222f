package tree

import (
	"sort"

	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/keys"
	"repro/internal/vec"
)

// WalkFused is the original single-phase traversal, as the paper wrote
// it: a stack of keys, one hash probe per cell, a square root per
// acceptance test, and each accepted interaction evaluated as it is
// found by the float64 references (grav.M2P, grav.AccelAt),
// accumulating into acc and pot (parallel slices of gpos, NOT zeroed
// here). It is the reference the list walk (Walk + Evaluate,
// descending by index and comparing squares) is tested against. The
// group's own cell is never put to the MAC: by key, its bodies (gpos,
// gmass) interact pairwise.
func WalkFused(t *Tree, groupKey keys.Key, gpos []vec.V3, gmass []float64, acc []vec.V3, pot []float64, eps2 float64, quad bool, ctr *diag.Counters) {
	gc, gr := GroupSphere(gpos)
	stack := []keys.Key{keys.Root}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := t.Cell(k)
		ctr.Traversals++
		if c.Mp.M == 0 {
			continue // empty cell contributes nothing
		}
		if k == groupKey {
			ctr.PP += addSelfAccel(gpos, gmass, acc, pot, eps2)
			continue
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
			spos, smass := t.LeafBodies(c)
			ctr.PP += addAccel(gpos, acc, pot, spos, smass, eps2)
			continue
		}
		for oct := 0; oct < 8; oct++ {
			if c.ChildMask&(1<<uint(oct)) != 0 {
				stack = append(stack, k.Child(oct))
			}
		}
	}
}

// addAccel adds the exact float64 field of the bodies (spos, smass),
// grav.AccelAt, to each target and returns the interaction count.
func addAccel(tpos []vec.V3, acc []vec.V3, pot []float64, spos []vec.V3, smass []float64, eps2 float64) uint64 {
	for i, x := range tpos {
		a, p := grav.AccelAt(x, spos, smass, eps2)
		acc[i], pot[i] = acc[i].Add(a), pot[i]+p
	}
	return uint64(len(tpos)) * uint64(len(spos))
}

// addSelfAccel adds to each body the exact float64 field of all the
// others and returns the interaction count, n(n-1).
func addSelfAccel(pos []vec.V3, mass []float64, acc []vec.V3, pot []float64, eps2 float64) (n uint64) {
	for i := range pos {
		n += addAccel(pos[i:i+1], acc[i:i+1], pot[i:i+1], pos[:i], mass[:i], eps2)
		n += addAccel(pos[i:i+1], acc[i:i+1], pot[i:i+1], pos[i+1:], mass[i+1:], eps2)
	}
	return n
}

// GravityFused is the original fused-walk evaluation (traversal and
// kernels interleaved, AoS accumulators): the same interaction counts
// as Gravity and the same forces to roundoff.
func (t *Tree) GravityFused(eps2 float64) diag.Counters {
	var ctr diag.Counters
	sys := t.Sys
	for _, gk := range t.Groups {
		g := t.Cell(gk)
		lo, hi := g.First, g.First+g.N
		for i := lo; i < hi; i++ {
			sys.Acc[i] = vec.V3{}
			sys.Pot[i] = 0
		}
		before := ctr.PP + ctr.PC
		WalkFused(t, gk, sys.Pos[lo:hi], sys.Mass[lo:hi], sys.Acc[lo:hi], sys.Pot[lo:hi], eps2, t.MAC.Quad, &ctr)
		if g.N > 0 {
			per := (ctr.PP + ctr.PC - before) / uint64(g.N)
			for i := lo; i < hi; i++ {
				sys.Work[i] = per
			}
		}
	}
	return ctr
}

// SinkCap is the group capacity, for tests that hold groups to it.
const SinkCap = sinkCap

// LeafGroups returns t's leaves in Morton order: the groups of the
// traversal before sink cells, when every leaf walked for itself. Set
// as t.Groups it is the ablation sink cells are timed and tested
// against (every walker takes a group by key and body range, so a leaf
// serves); nothing outside tests can select it. This hook is the only
// switch.
func LeafGroups(t *Tree) []keys.Key {
	var leaves []keys.Key
	t.Cells.Range(func(k keys.Key, c *Cell) bool {
		if c.Leaf {
			leaves = append(leaves, k)
		}
		return true
	})
	sort.Slice(leaves, func(i, j int) bool { return t.Cell(leaves[i]).First < t.Cell(leaves[j]).First })
	return leaves
}
