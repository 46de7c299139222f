// Parallel fan-out tree construction. The sorted body array is
// partitioned at octant boundaries (recursing into the largest
// partition until there are a few per worker), each partition's
// subtree is built concurrently into a per-partition cell buffer,
// the buffers are bulk-inserted into the shared hash table, and the
// root spine above the partitions is assembled serially. Moments and
// RCrit are byte-identical to the serial build for any worker count:
// the partitions plus spine are exactly the cells the serial
// recursion creates, and every internal cell combines the same child
// moments in the same octant order.

package tree

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/htab"
	"repro/internal/keys"
)

// buildMinParallel is the body count below which partitioning and
// worker fan-out cost more than the build itself.
const buildMinParallel = 1 << 14

// partsPerWorker over-decomposes so the largest-first greedy schedule
// can balance uneven octant populations.
const partsPerWorker = 4

// part is one contiguous run of the sorted body array, rooted at key.
type part struct {
	key    keys.Key
	lo, hi int
}

// spineRec remembers an internal cell above the partitions; its
// moments are combined from its children after the partitions finish.
type spineRec struct {
	key    keys.Key
	lo, hi int
	mask   uint8
}

// cellSink collects the cells and leaf groups of one partition's
// subtree in DFS order.
type cellSink struct {
	cells  []Cell
	groups []keys.Key
}

// Builder constructs trees, reusing its partition and cell-buffer
// scratch across builds (one Builder per rank, like core.Sorter). The
// zero value is ready to use.
type Builder struct {
	// Workers caps the build goroutines; 0 means automatic
	// (GOMAXPROCS, capped), 1 forces the serial path.
	Workers int
	// Sub, when non-nil, receives the construction sub-breakdown as
	// the phases "treebuild/build" (partition + concurrent subtree
	// builds) and "treebuild/insert" (bulk hash insertion + spine).
	Sub *diag.Timer

	// minParallel overrides buildMinParallel in tests.
	minParallel int

	parts    []part
	partsTmp []part
	spine    []spineRec
	order    []int32
	sinks    []cellSink
}

// NewBuilder returns a Builder with the given worker cap.
func NewBuilder(workers int) *Builder { return &Builder{Workers: workers} }

func (b *Builder) effWorkers(n int) int {
	minP := b.minParallel
	if minP <= 0 {
		minP = buildMinParallel
	}
	if n < minP {
		return 1
	}
	w := b.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if w > 8 {
			w = 8
		}
	}
	if w < 1 {
		w = 1
	}
	return w
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
		Cells:   htab.New[Cell](2 * (sys.Len()/bucket + 16)),
		rangeLo: lo, rangeHi: hi,
	}
	if b.Sub != nil {
		b.Sub.Start("treebuild/build")
	}
	w := b.effWorkers(sys.Len())
	b.partition(t, w)
	b.runParts(t, w)
	if b.Sub != nil {
		b.Sub.Start("treebuild/insert")
	}
	b.assemble(t)
	if b.Sub != nil {
		b.Sub.Stop()
	}
	return t
}

// expandable reports whether the serial recursion would subdivide
// this cell (the exact complement of the leaf rule in buildInto).
func (t *Tree) expandable(p part) bool {
	if p.key.Level() == keys.MaxLevel {
		return false
	}
	inside := KeyOffset(p.key.MinBody()) >= t.rangeLo && KeyOffset(p.key.MaxBody()) < t.rangeHi
	return !(p.hi-p.lo <= t.Bucket && inside)
}

// partition splits [0, N) at octant boundaries until there are
// roughly partsPerWorker partitions per worker, always expanding the
// most populous expandable partition. Expanded cells are recorded as
// spine records for assemble.
func (b *Builder) partition(t *Tree, w int) {
	b.parts = append(b.parts[:0], part{key: keys.Root, lo: 0, hi: t.Sys.Len()})
	b.spine = b.spine[:0]
	if w == 1 {
		return
	}
	target := partsPerWorker * w
	for len(b.parts) < target {
		best := -1
		for i, p := range b.parts {
			if !t.expandable(p) {
				continue
			}
			if best < 0 || p.hi-p.lo > b.parts[best].hi-b.parts[best].lo {
				best = i
			}
		}
		if best < 0 {
			break
		}
		p := b.parts[best]
		var kids [8]part
		nk := 0
		var mask uint8
		cur := p.lo
		for oct := 0; oct < 8; oct++ {
			ck := p.key.Child(oct)
			end := cur + UpperBound(t.Sys.Key[cur:p.hi], ck.MaxBody())
			if end > cur {
				kids[nk] = part{key: ck, lo: cur, hi: end}
				nk++
				mask |= 1 << uint(oct)
			}
			cur = end
		}
		b.spine = append(b.spine, spineRec{key: p.key, lo: p.lo, hi: p.hi, mask: mask})
		// Splice the children in place of the parent, preserving the
		// Morton order of the partition list.
		b.partsTmp = append(b.partsTmp[:0], b.parts[best+1:]...)
		b.parts = append(b.parts[:best], kids[:nk]...)
		b.parts = append(b.parts, b.partsTmp...)
	}
}

// runParts builds every partition's subtree, concurrently when there
// is more than one worker. Workers claim partitions largest-first off
// an atomic counter (the ForcePool idiom), writing into disjoint
// per-partition sinks.
func (b *Builder) runParts(t *Tree, w int) {
	np := len(b.parts)
	for len(b.sinks) < np {
		b.sinks = append(b.sinks, cellSink{})
	}
	if np == 1 || w == 1 {
		for pi := range b.parts {
			b.buildPart(t, pi)
		}
		return
	}
	b.order = b.order[:0]
	for pi := range b.parts {
		b.order = append(b.order, int32(pi))
	}
	sort.Slice(b.order, func(i, j int) bool {
		a, c := b.parts[b.order[i]], b.parts[b.order[j]]
		return a.hi-a.lo > c.hi-c.lo
	})
	if w > np {
		w = np
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(b.order)) {
					return
				}
				b.buildPart(t, int(b.order[i]))
			}
		}()
	}
	wg.Wait()
}

func (b *Builder) buildPart(t *Tree, pi int) {
	s := &b.sinks[pi]
	s.cells = s.cells[:0]
	s.groups = s.groups[:0]
	p := b.parts[pi]
	t.buildInto(s, p.key, p.lo, p.hi)
}

// assemble bulk-inserts the partition subtrees in Morton order and
// builds the spine cells in reverse creation order, so every child
// (partition root or deeper spine cell) is in the table before its
// parent's moments are combined.
func (b *Builder) assemble(t *Tree) {
	for pi := range b.parts {
		for _, c := range b.sinks[pi].cells {
			t.Cells.Insert(c.Key, c)
		}
		t.Groups = append(t.Groups, b.sinks[pi].groups...)
	}
	for i := len(b.spine) - 1; i >= 0; i-- {
		r := b.spine[i]
		var children [8]grav.Multipole
		present := children[:0]
		for oct := 0; oct < 8; oct++ {
			if r.mask&(1<<uint(oct)) != 0 {
				present = append(present, t.Cells.Ptr(r.key.Child(oct)).Mp)
			}
		}
		mp := grav.Combine(present)
		center, size := t.Domain.CellCenter(r.key)
		c := Cell{
			Key:       r.key,
			Mp:        mp,
			First:     int32(r.lo),
			N:         int32(r.hi - r.lo),
			ChildMask: r.mask,
		}
		c.RCrit = grav.RCrit(&mp, size, mp.COM.Sub(center).Norm(), t.MAC)
		t.Cells.Insert(r.key, c)
	}
}

// buildInto is the serial subtree recursion: identical arithmetic to
// the historical Tree.build, but emitting cells into a sink so
// partitions can build concurrently without touching the shared
// table.
func (t *Tree) buildInto(sink *cellSink, key keys.Key, lo, hi int) grav.Multipole {
	center, size := t.Domain.CellCenter(key)
	inside := KeyOffset(key.MinBody()) >= t.rangeLo && KeyOffset(key.MaxBody()) < t.rangeHi
	if (hi-lo <= t.Bucket && inside) || key.Level() == keys.MaxLevel {
		mp := grav.FromBodies(t.Sys.Pos[lo:hi], t.Sys.Mass[lo:hi])
		c := Cell{
			Key:   key,
			Mp:    mp,
			First: int32(lo),
			N:     int32(hi - lo),
			Leaf:  true,
		}
		c.RCrit = grav.RCrit(&mp, size, mp.COM.Sub(center).Norm(), t.MAC)
		sink.cells = append(sink.cells, c)
		sink.groups = append(sink.groups, key)
		return mp
	}
	var children [8]grav.Multipole
	present := children[:0]
	var mask uint8
	cur := lo
	for oct := 0; oct < 8; oct++ {
		ck := key.Child(oct)
		// End of this octant's body range: first key beyond MaxBody.
		end := cur + UpperBound(t.Sys.Key[cur:hi], ck.MaxBody())
		if end > cur {
			mp := t.buildInto(sink, ck, cur, end)
			present = append(present, mp)
			mask |= 1 << uint(oct)
		}
		cur = end
	}
	mp := grav.Combine(present)
	c := Cell{
		Key:       key,
		Mp:        mp,
		First:     int32(lo),
		N:         int32(hi - lo),
		ChildMask: mask,
	}
	c.RCrit = grav.RCrit(&mp, size, mp.COM.Sub(center).Norm(), t.MAC)
	sink.cells = append(sink.cells, c)
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
