package hotengine

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"

	"repro/internal/abm"
	"repro/internal/keys"
	"repro/internal/tree"
)

// SetPush switches the push of a walk phase on or off. Off, every
// remote cell is fetched by park/request/resume, as before the push
// existed, and the phase ends on the vote/round loop: the path the push
// is tested against. This hook is the only switch.
func (e *Engine[X]) SetPush(on bool) { e.pushOff = !on }

// SetFallBack lets a pushed walk phase end on the vote/round loop the
// push-off walk runs, so a group the push did not cover parks, asks
// and resumes instead of aborting the world: how an under-pushing
// TestBound is held to the request walk. This hook is the only switch.
func (e *Engine[X]) SetFallBack(on bool) { e.fallBack = on }

// SetMaxRounds lowers the request/reply rounds a walk phase with the
// push off may run before the rank aborts the world (maxRounds). This
// hook is the only switch.
func (e *Engine[X]) SetMaxRounds(n int) { e.maxRounds = n }

// ImportedBodies is the length of the import arena: the bodies of every
// leaf imported since the last exchange or ResetImports.
func (e *Engine[X]) ImportedBodies() int32 { return e.nimp }

// SetHashDescent switches the walks between tree.Descend over the LET
// (off: children by index, as shipped) and the paper's design, a stack
// of keys and one hash probe per cell of the same table (on): the
// ablation the index descent is tested and timed against. Same test,
// same order, same batch, the same misses and first entries, the group's
// own cell known by its key and taken whole; only how a child is found
// differs. This hook is the only switch.
func (e *Engine[X]) SetHashDescent(on bool) {
	if !on {
		e.hashDescent = nil
		return
	}
	var stack []keys.Key
	e.hashDescent = func(from, n int32, emit bool) (visits uint64) {
		d, cells := &e.desc, e.let.Cells
		stack = stack[:0]
		for i := from; i < from+n; i++ {
			stack = append(stack, cells.At(int(i)).Key)
		}
		for len(stack) > 0 {
			i := int32(cells.Index(stack[len(stack)-1]))
			c := cells.At(int(i))
			stack = stack[:len(stack)-1]
			visits++
			if d.Own(c) {
				if emit {
					d.Opened = append(d.Opened, c)
				}
				continue
			}
			switch a := d.Test(c); {
			case a == tree.Skip:
			case a == tree.Accept:
				if emit {
					d.Accepted = append(d.Accepted, c)
					if d.Index {
						d.At = append(d.At, i)
					}
				}
			case c.Leaf:
				if c.Kids < 0 {
					if c.First == tree.Unfetched {
						visits--
						d.Missed, emit = append(d.Missed, i), false
						continue
					}
					c.Kids = 0
					d.Entered++
				}
				if emit {
					d.Opened = append(d.Opened, c)
				}
			case c.Kids == 0:
				d.Missed, emit = append(d.Missed, i), false
			default:
				if c.Kids < 0 {
					c.Kids = -c.Kids
					d.Entered += uint64(bits.OnesCount8(c.ChildMask))
				}
				for oct := 0; oct < 8; oct++ {
					if c.ChildMask&(1<<uint(oct)) != 0 {
						stack = append(stack, c.Key.Child(oct))
					}
				}
			}
		}
		return visits
	}
}

// CheckLET verifies the locally essential tree's layout: entry 0 is the
// root and every entry is found under its key; every cell with Kids ≠ 0
// has its ChildMask children at |Kids|, |Kids|+1, ... in octant order;
// Kids == 0 on a cell that is not a leaf only for another rank's cell
// whose family has not landed, and an unfetched record only for another
// rank's leaf branch (no reserved slot is left empty); each entry has
// its payload; and each own subtree equals the local tree's, cell for
// cell and payload for payload.
func (e *Engine[X]) CheckLET() error {
	cells := e.let.Cells
	if cells.Len() == 0 {
		return nil // no bodies anywhere
	}
	if k := cells.At(0).Key; k != keys.Root {
		return fmt.Errorf("entry 0 is %v, not the root", k)
	}
	if len(e.letX) != cells.Len() {
		return fmt.Errorf("%d payloads for %d entries", len(e.letX), cells.Len())
	}
	for i := 0; i < cells.Len(); i++ {
		c := cells.At(i)
		remote := i >= e.letTop || slices.Contains(e.remote, int32(i))
		if j := cells.Index(c.Key); j != i {
			return fmt.Errorf("entry %d (%v) is found at %d", i, c.Key, j)
		}
		switch kids := c.Kids; {
		case c.First == tree.Unfetched && !(c.Leaf && slices.Contains(e.remote, int32(i))):
			return fmt.Errorf("entry %d (%v) is a slot its family left empty", i, c.Key)
		case c.Leaf:
			if kids > 0 || (kids < 0 && !slices.Contains(e.remote, int32(i))) {
				return fmt.Errorf("leaf %v has child index %d", c.Key, kids)
			}
		case kids == 0:
			if !remote {
				return fmt.Errorf("cell %v of the top tree or an own subtree has no children laid out", c.Key)
			}
			for oct := 0; oct < 8; oct++ {
				if c.ChildMask&(1<<uint(oct)) != 0 && cells.Index(c.Key.Child(oct)) >= 0 {
					return fmt.Errorf("cell %v: child %d landed but is not laid out under it", c.Key, oct)
				}
			}
		default:
			next := max(kids, -kids)
			for oct := 0; oct < 8; oct++ {
				if c.ChildMask&(1<<uint(oct)) == 0 {
					continue
				}
				if int(next) >= cells.Len() || cells.At(int(next)).Key != c.Key.Child(oct) {
					return fmt.Errorf("cell %v child %d is not at entry %d", c.Key, oct, next)
				}
				next++
			}
		}
	}
	for _, bk := range e.branches {
		if err := e.sameSubtree(cells.Index(bk), e.Local.Cell(bk)); err != nil {
			return err
		}
	}
	return nil
}

// sameSubtree compares the LET's entry i and what lies below it with
// the local cell lc and its subtree.
func (e *Engine[X]) sameSubtree(i int, lc *tree.Cell) error {
	c, l := *e.let.Cells.At(i), *lc
	if (c.Kids == 0) != (l.Kids == 0) {
		return fmt.Errorf("own cell %v: child index %d, local %d", c.Key, c.Kids, l.Kids)
	}
	c.Kids, l.Kids = 0, 0
	if c != l || !reflect.DeepEqual(e.letX[i], e.Phys.Extra(lc)) {
		return fmt.Errorf("own cell %v differs from the local tree's", c.Key)
	}
	for j := 0; j < bits.OnesCount8(c.ChildMask) && !c.Leaf; j++ {
		if err := e.sameSubtree(int(e.let.Cells.At(i).Kids)+j, e.Local.Cells.At(int(lc.Kids)+j)); err != nil {
			return err
		}
	}
	return nil
}

// Resolve looks a cell up in the LET by key, as the walks did before
// the LET was laid out: another rank's leaf branch resolves to its
// record, without bodies until they land (First == tree.Unfetched); a
// cell whose family has not landed does not resolve.
func (e *Engine[X]) Resolve(k keys.Key) (c *tree.Cell, x X, ok bool) {
	i := e.let.Cells.Index(k)
	if i < 0 {
		return nil, x, false
	}
	return e.let.Cells.At(i), e.letX[i], true
}

// RestartWalkGroups is the walk phase as this package ran it before
// suspended walks: a group that misses a cell is re-walked from the
// root, emitting all the way, once per round until it completes
// (classic inline schedule, no push), the group's own cell known by its
// key and taken whole. It is the reference WalkGroups with the push off
// is tested against: same lists, same counters, same rounds and
// traffic.
func (e *Engine[X]) RestartWalkGroups(label string, v Visitor[X], eval EvalFn) {
	eng := abm.New[keys.Key, Wire[X]](e.C, KeyWireBytes(), e.wireBytes, e.serve)
	e.C.Phase(e.Cfg.PhasePrefix + label)
	pending := map[keys.Key]bool{}
	todo := append([]keys.Key(nil), e.Local.Groups...)
	var stack, missing []keys.Key
	e.snapshot() // what the replies carry
	e.setVisitor(v)
	defer func() { e.curWalk, e.query = nil, nil }()
	for {
		var deferred []keys.Key
		for _, gk := range todo {
			g := e.Local.Cell(gk)
			e.begin(gk, g)
			e.extras, missing = e.extras[:0], missing[:0]
			stack = append(stack[:0], keys.Root)
			var visits uint64
			for len(stack) > 0 {
				k := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				c, x, ok := e.Resolve(k)
				if !ok {
					missing = append(missing, k)
					continue
				}
				if k == gk {
					visits++
					e.desc.Opened = append(e.desc.Opened, c)
					continue
				}
				a := e.desc.Test(c)
				if a == tree.Open && c.First == tree.Unfetched {
					// A remote leaf branch is fetched only to be opened.
					missing = append(missing, k)
					continue
				}
				visits++
				switch {
				case a == tree.Skip:
				case a == tree.Accept:
					e.desc.Accepted = append(e.desc.Accepted, c)
					e.extras = append(e.extras, x)
				case c.Leaf:
					e.desc.Opened = append(e.desc.Opened, c)
				default:
					for oct := 0; oct < 8; oct++ {
						if c.ChildMask&(1<<uint(oct)) != 0 {
							stack = append(stack, k.Child(oct))
						}
					}
				}
			}
			if len(missing) == 0 {
				e.Counters.Traversals += visits
				v.Leaves(e.desc.Opened)
				v.Cells(e.desc.Accepted, e.extras)
				if eval != nil {
					eval(gk, g, &e.Counters)
				}
				continue
			}
			e.Park.Deferred++
			deferred = append(deferred, gk)
			for _, mk := range missing {
				if !pending[mk] {
					pending[mk] = true
					e.Park.Requests++
					eng.Post(e.OwnerOf(mk), mk)
				}
			}
		}
		if !eng.Vote(len(deferred) > 0) {
			return
		}
		for _, reps := range eng.Round() {
			e.onReplyBatch(0, reps)
		}
		e.Rounds++
		todo = deferred
	}
}
