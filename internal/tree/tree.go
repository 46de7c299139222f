// Package tree implements the hashed oct-tree: an adaptive octree over
// Morton keys whose cells live in a hash table (internal/htab), so any
// cell is reachable by key arithmetic plus one lookup — the property
// that lets the parallel code use one global name space for local and
// remote data alike.
//
// A tree is built over a key-sorted body array: cells subdivide until
// they hold at most BucketSize bodies, every cell carries the
// [First,First+N) range of its bodies, and every cell stores its multipole
// moments and the critical radius RCrit precomputed from the
// configured multipole acceptance criterion. The children of a cell
// sit side by side in the table's entries (Cell.Kids), so a traversal
// moves by index (Descend) and the hash is probed only for a name: a
// group's leaf, a branch, a requested cell. The distributed engine lays
// its locally essential tree out the same way and walks it with the same
// Descend.
package tree

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/grav"
	"repro/internal/htab"
	"repro/internal/keys"
	"repro/internal/vec"
)

// DefaultBucketSize is the leaf capacity: how finely the tree resolves
// its bodies as sources.
const DefaultBucketSize = 16

// sinkCap is the most bodies that share one interaction list (a group,
// Tree.Groups), sized apart from the sources as in Barnes' modified
// algorithm. Walk plus evaluation of 10 000 Plummer bodies, in ms at
// 16/24/32/48/64/96/128: 121/110/97/85/81/79/81 and 118/106/92/84/81/
// 78/82 on two seeds (EXPERIMENTS.md "Sink cells (PR 23)"): flat from
// 48 up, so a constant, not a knob.
const sinkCap = 64

// Cell is one node of the hashed oct-tree.
type Cell struct {
	// Mp is the cell's moments, the first field: a *Cell is a pointer
	// to them too (Walker.TakeCells).
	Mp  grav.Multipole
	Key keys.Key
	// RCrit is the precomputed critical radius: the cell's multipole
	// expansion is valid for any target farther than RCrit from the
	// center of mass.
	RCrit float64
	// First and N give the cell's body range (indices into the owning
	// body arena; of a record outside a local tree, a leaf's only).
	First, N int32
	// Kids is the index, among the entries of the tree's table, of this
	// cell's first child; the others follow it in octant order, one per
	// set bit of ChildMask. Zero (the root's entry, nobody's child)
	// means none: a leaf, or children not here -- in a locally essential
	// tree, another rank's cell whose family has not landed. Negative
	// means the children are here, at -Kids, but no descent has entered
	// them yet (a leaf's -1: its bodies, here unless First ==
	// Unfetched); the first Descend to open the cell counts them
	// (Descent.Entered) and makes Kids non-negative.
	Kids int32
	// ChildMask has bit o set when child octant o exists.
	ChildMask uint8
	Leaf      bool
}

// Tree is a hashed oct-tree over one (locally stored) body set.
type Tree struct {
	Sys    *core.System
	Domain keys.Domain
	MAC    grav.MACParams
	Bucket int
	Cells  *htab.Table[Cell]
	// Groups lists the sink cells, the traversal's groups, in Morton
	// order: each the largest cell of at most sinkCap bodies wholly
	// inside [rangeLo, rangeHi), or a leaf where there is none. They
	// tile the bodies; the leaves below them remain the sources.
	Groups []keys.Key
	// rangeLo/rangeHi force-split interval: a cell whose key interval
	// is not fully inside [rangeLo, rangeHi) must subdivide even if it
	// holds few bodies, so that every branch cell of the interval
	// materializes as a tree node (the parallel engine depends on it).
	rangeLo, rangeHi uint64
}

// Build constructs the tree. Bodies must already carry keys for the
// domain and be sorted by key; Build panics otherwise (the callers --
// serial driver and parallel engine -- own the sort step explicitly).
func Build(sys *core.System, d keys.Domain, mac grav.MACParams, bucket int) *Tree {
	return BuildRange(sys, d, mac, bucket, 0, EndOffset)
}

// BuildRange constructs the tree for a processor owning the key-offset
// interval [lo, hi): identical to Build except that cells straddling
// the interval boundary always subdivide (see Tree.rangeLo). It runs
// through a transient Builder (see build.go); pipelines that build
// every timestep hold a persistent Builder instead.
func BuildRange(sys *core.System, d keys.Domain, mac grav.MACParams, bucket int, lo, hi uint64) *Tree {
	var b Builder
	return b.BuildRange(sys, d, mac, bucket, lo, hi)
}

// inside reports whether every body key under k is in the interval.
func (t *Tree) inside(k keys.Key) bool {
	return KeyOffset(k.MinBody()) >= t.rangeLo && KeyOffset(k.MaxBody()) < t.rangeHi
}

// Cell returns the cell stored under k, or nil.
func (t *Tree) Cell(k keys.Key) *Cell { return t.Cells.Ptr(k) }

// LeafBodies returns the positions and masses of a leaf's bodies.
func (t *Tree) LeafBodies(c *Cell) ([]vec.V3, []float64) {
	return t.Sys.Pos[c.First : c.First+c.N], t.Sys.Mass[c.First : c.First+c.N]
}

// NCells returns the number of cells in the tree.
func (t *Tree) NCells() int { return t.Cells.Len() }

// CheckInvariants validates structural and physical consistency; used
// by tests and returned as an error for fuzzing.
func (t *Tree) CheckInvariants() error {
	root := t.Cell(keys.Root)
	if root == nil {
		return fmt.Errorf("tree: no root cell")
	}
	var sum float64
	for _, m := range t.Sys.Mass {
		sum += m
	}
	if d := root.Mp.M - sum; d > 1e-9*sum+1e-12 || d < -1e-9*sum-1e-12 {
		return fmt.Errorf("tree: root mass %g != body mass %g", root.Mp.M, sum)
	}
	// Group ranges tile [0, N) in Morton order (so none is an ancestor
	// of another). A group is a leaf or a cell of at most sinkCap
	// bodies inside the interval, the largest such, and never straddles
	// the interval: outside it there are only single-key leaves.
	sink := func(c *Cell) bool { return int(c.N) <= sinkCap && t.inside(c.Key) }
	next := 0
	for _, gk := range t.Groups {
		g := t.Cell(gk)
		if g == nil || !(g.Leaf || sink(g)) {
			return fmt.Errorf("tree: group %v is neither a leaf nor a sink cell", gk)
		}
		if p := t.Cell(gk.Parent()); p != nil && sink(p) {
			return fmt.Errorf("tree: group %v is not the largest sink cell: its parent holds %d bodies", gk, p.N)
		}
		if !t.inside(gk) && gk.Level() < keys.MaxLevel {
			return fmt.Errorf("tree: group %v straddles the interval [%d, %d)", gk, t.rangeLo, t.rangeHi)
		}
		if int(g.First) != next {
			return fmt.Errorf("tree: group %v starts at %d, want %d", gk, g.First, next)
		}
		next = int(g.First + g.N)
		for i := g.First; i < g.First+g.N; i++ {
			if !gk.Contains(t.Sys.Key[i]) {
				return fmt.Errorf("tree: body %d (key %v) outside its group %v", i, t.Sys.Key[i], gk)
			}
		}
	}
	if next != t.Sys.Len() {
		return fmt.Errorf("tree: groups cover %d bodies, want %d", next, t.Sys.Len())
	}
	// Internal cells: mass equals sum of children; ChildMask matches
	// table contents; the children sit side by side from entry Kids, in
	// octant order, which is what Descend walks.
	if t.Cells.At(0) != root {
		return fmt.Errorf("tree: the root is not entry 0")
	}
	var err error
	t.Cells.Range(func(k keys.Key, c *Cell) bool {
		if c.Leaf {
			if c.Kids != 0 {
				err = fmt.Errorf("tree: leaf %v has a child index %d", k, c.Kids)
			}
			return err == nil
		}
		var m float64
		next := int(c.Kids)
		for oct := 0; oct < 8; oct++ {
			ck := k.Child(oct)
			child := t.Cell(ck)
			if c.ChildMask&(1<<uint(oct)) != 0 {
				if child == nil {
					err = fmt.Errorf("tree: cell %v claims child %d but it is absent", k, oct)
					return false
				}
				if next <= 0 || next >= t.NCells() || t.Cells.At(next) != child {
					err = fmt.Errorf("tree: cell %v child %d is not at entry %d", k, oct, next)
					return false
				}
				next++
				m += child.Mp.M
			} else if child != nil && keys.Root.Contains(ck) {
				// A present child not in the mask is a corruption
				// (unless it is an unrelated key, impossible here).
				err = fmt.Errorf("tree: cell %v has unmasked child %d", k, oct)
				return false
			}
		}
		if d := m - c.Mp.M; d > 1e-9*c.Mp.M+1e-12 || d < -1e-9*c.Mp.M-1e-12 {
			err = fmt.Errorf("tree: cell %v mass %g != children %g", k, c.Mp.M, m)
			return false
		}
		return true
	})
	return err
}

// KeyOffset maps a body-level key to its offset on the Morton curve:
// a plain integer in [0, 8^21) with the placeholder bit stripped.
// Domain splits are expressed as offsets so that the exclusive upper
// end of the last processor's interval (8^21) is representable.
func KeyOffset(k keys.Key) uint64 {
	return uint64(k) &^ (uint64(1) << 63)
}

// EndOffset is one past the largest body-key offset.
const EndOffset = uint64(1) << 63

// RangeDecompose returns the minimal set of cells whose body-key
// intervals exactly tile the offset interval [lo, hi). These are the
// "branch" cells a processor publishes to the shared top tree: the
// coarsest cells fully contained in its domain interval.
func RangeDecompose(olo, ohi uint64) []keys.Key {
	var out []keys.Key
	cur := olo
	for cur < ohi {
		// Largest block size 8^s aligned at cur and fitting in the
		// remaining interval.
		sAlign := keys.MaxLevel
		if cur != 0 {
			sAlign = bits.TrailingZeros64(cur) / 3
		}
		sFit := (63 - bits.LeadingZeros64(ohi-cur)) / 3
		s := sAlign
		if sFit < s {
			s = sFit
		}
		if s > keys.MaxLevel {
			s = keys.MaxLevel
		}
		level := keys.MaxLevel - s
		out = append(out, keys.Key(cur>>(3*uint(s))|1<<(3*uint(level))))
		cur += 1 << (3 * uint(s))
	}
	return out
}
