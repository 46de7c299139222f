// Tree construction. One recursion over the key-sorted body array
// splits each cell's range at its octant boundaries and lays the
// children out side by side before building any of them, so the cells
// come out in the order the table will hold them: a cell's children
// contiguous, in octant order, from the entry index recorded on the
// parent (Cell.Kids), the root first. Moments and RCrit combine the
// same child moments in the same octant order whatever the layout.

package tree

import (
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/htab"
	"repro/internal/keys"
)

// Builder constructs trees, reusing its cell and group buffers across
// builds (one Builder per rank, like core.Sorter). The zero value is
// ready to use.
type Builder struct {
	// Sub, when non-nil, receives the construction sub-breakdown as
	// the phases "treebuild/build" (the recursion: octant splits,
	// moments) and "treebuild/insert" (hash insertion of the cells).
	Sub *diag.Timer

	// cells is the tree under construction, in table order; groups its
	// sink cells (Tree.Groups) in Morton order.
	cells  []Cell
	groups []keys.Key
}

// BuildRange is Builder's counterpart of the package-level BuildRange:
// same contract, same resulting tree, byte for byte.
func (b *Builder) BuildRange(sys *core.System, d keys.Domain, mac grav.MACParams, bucket int, lo, hi uint64) *Tree {
	if bucket <= 0 {
		bucket = DefaultBucketSize
	}
	if !sys.Sorted() {
		panic("tree: bodies must be sorted by key before Build")
	}
	t := &Tree{
		Sys:     sys,
		Domain:  d,
		MAC:     mac,
		Bucket:  bucket,
		rangeLo: lo, rangeHi: hi,
	}
	if b.Sub != nil {
		b.Sub.Start("treebuild/build")
	}
	b.cells = append(b.cells[:0], Cell{})
	b.groups = b.groups[:0]
	b.build(t, 0, keys.Root, 0, sys.Len(), false)
	if b.Sub != nil {
		b.Sub.Start("treebuild/insert")
	}
	// Insertion order is entry order, so the indices the recursion
	// recorded are the table's.
	t.Cells = htab.New[Cell](len(b.cells))
	for i := range b.cells {
		t.Cells.Insert(b.cells[i].Key, b.cells[i])
	}
	t.Groups = append(t.Groups, b.groups...)
	if b.Sub != nil {
		b.Sub.Stop()
	}
	return t
}

// build fills entry idx with the cell for key over the bodies
// [lo, hi), and the entries it appends with the subtree below it.
// grouped says an ancestor is a sink already: the first cell on the way
// down inside the interval with at most sinkCap bodies is the group of
// everything below it, and a leaf reached without one is its own.
func (b *Builder) build(t *Tree, idx int32, key keys.Key, lo, hi int, grouped bool) grav.Multipole {
	center, size := t.Domain.CellCenter(key)
	inside := t.inside(key)
	leaf := (hi-lo <= t.Bucket && inside) || key.Level() == keys.MaxLevel
	if !grouped && (leaf || (inside && hi-lo <= sinkCap)) {
		b.groups = append(b.groups, key)
		grouped = true
	}
	if leaf {
		mp := grav.FromBodies(t.Sys.Pos[lo:hi], t.Sys.Mass[lo:hi])
		c := Cell{
			Key:   key,
			Mp:    mp,
			First: int32(lo),
			N:     int32(hi - lo),
			Leaf:  true,
		}
		c.RCrit = grav.RCrit(&mp, size, mp.COM.Sub(center).Norm(), t.MAC)
		b.cells[idx] = c
		return mp
	}
	// End of each octant's body range: first key beyond its MaxBody.
	var ends [8]int
	var mask uint8
	nkids := 0
	cur := lo
	for oct := 0; oct < 8; oct++ {
		ends[oct] = cur + UpperBound(t.Sys.Key[cur:hi], key.Child(oct).MaxBody())
		if ends[oct] > cur {
			mask |= 1 << uint(oct)
			nkids++
		}
		cur = ends[oct]
	}
	kids := int32(len(b.cells))
	b.cells = append(b.cells, make([]Cell, nkids)...)
	var children [8]grav.Multipole
	present := children[:0]
	cur = lo
	for oct := 0; oct < 8; oct++ {
		if mask&(1<<uint(oct)) != 0 {
			present = append(present, b.build(t, kids+int32(len(present)), key.Child(oct), cur, ends[oct], grouped))
		}
		cur = ends[oct]
	}
	mp := grav.Combine(present)
	c := Cell{
		Key:       key,
		Mp:        mp,
		First:     int32(lo),
		N:         int32(hi - lo),
		Kids:      kids,
		ChildMask: mask,
	}
	c.RCrit = grav.RCrit(&mp, size, mp.COM.Sub(center).Norm(), t.MAC)
	b.cells[idx] = c
	return mp
}

// UpperBound returns how many leading keys of the ascending ks are
// <= max. Octant splits near the buckets are short, so small slices
// use a linear scan; long ones a branch-light binary search (replacing
// the closure-based sort.Search on the build hot path and in the
// engine's owner lookup over the split table).
func UpperBound[K ~uint64](ks []K, max K) int {
	if len(ks) <= 64 {
		for i, k := range ks {
			if k > max {
				return i
			}
		}
		return len(ks)
	}
	lo, hi := 0, len(ks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ks[mid] <= max {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
