package hotengine

import (
	"fmt"

	"repro/internal/abm"
	"repro/internal/keys"
	"repro/internal/tree"
)

// SetPush switches the push of a walk phase on or off. Off, every
// remote cell is fetched by park/request/resume, as before the push
// existed: the path the push is tested against, and the only way to
// exercise parking at will. This hook is the only switch.
func (e *Engine[X, B]) SetPush(on bool) { e.pushOff = !on }

// SetHashDescent switches the descent below this rank's own branches
// between tree.Descend (off: children by index, as shipped) and the
// paper's design, a stack of keys and one hash probe per cell (on):
// the ablation the index descent is tested and timed against. Same
// test, same order, same batch, the group's own cell known by its key
// and taken whole; only how a child is found differs. This hook is the
// only switch.
func (e *Engine[X, B]) SetHashDescent(on bool) {
	if !on {
		e.hashDescent = nil
		return
	}
	var stack []keys.Key
	pushKids := func(c *tree.Cell) {
		for oct := 0; oct < 8; oct++ {
			if c.ChildMask&(1<<uint(oct)) != 0 {
				stack = append(stack, c.Key.Child(oct))
			}
		}
	}
	e.hashDescent = func(branch *tree.Cell, emit bool) (visits uint64) {
		d := &e.desc
		stack = stack[:0]
		pushKids(branch)
		for len(stack) > 0 {
			c := e.Local.Cell(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			visits++
			if d.Own(c) {
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
					e.extras = append(e.extras, e.Phys.Extra(c))
				}
			case c.Leaf:
				if emit {
					d.Leaves.Leaf(c)
				}
			default:
				pushKids(c)
			}
		}
		return visits
	}
}

// CheckChildIndices verifies where a cell's child index may be set
// outside the local tree: the top tree's copy of one of this rank's own
// branches carries the branch's (so a traversal steps from the copy
// into the local entries); an ancestor, another rank's branch and every
// imported cell carry none.
func (e *Engine[X, B]) CheckChildIndices() error {
	var err error
	e.top.Range(func(k keys.Key, n *node[X]) bool {
		want := int32(0)
		if n.kids == inLocal {
			want = e.Local.Cell(k).Kids
		}
		if n.Cell.Kids != want {
			err = fmt.Errorf("top-tree cell %v (children in table %d) has child index %d, want %d", k, n.kids, n.Cell.Kids, want)
		}
		return err == nil
	})
	e.imported.Range(func(k keys.Key, n *node[X]) bool {
		if n.Cell.Kids != 0 {
			err = fmt.Errorf("imported cell %v has child index %d", k, n.Cell.Kids)
		}
		return err == nil
	})
	return err
}

// Resolve is the multi-probe cell lookup the engine used before
// traversals carried their table down the recursion: top tree
// (authoritative above and at the branches; a remote leaf branch
// resolves to its record without bodies, Unfetched), then the local
// tree for cells this rank owns, then the imported cells. Kept as the
// reference the table-carrying traversal is tested against.
func (e *Engine[X, B]) Resolve(k keys.Key) (c *tree.Cell, x X, ok bool) {
	if n := e.top.Ptr(k); n != nil {
		return &n.Cell, n.Extra, true
	}
	if e.OwnerOf(k) == e.C.Rank() {
		if c := e.Local.Cell(k); c != nil {
			return c, e.Phys.Extra(c), true
		}
		return nil, x, false
	}
	if in := e.importedPtr(k); in != nil {
		return &in.Cell, in.Extra, true
	}
	return nil, x, false
}

// RestartWalkGroups is the walk phase as this package ran it before
// suspended walks: a group that misses a cell is re-walked from the
// root, emitting all the way, once per round until it completes
// (classic inline schedule, no push), the group's own cell known by its
// key and taken whole. It is the reference WalkGroups with the push off
// is tested against: same lists, same counters, same rounds and
// traffic.
func (e *Engine[X, B]) RestartWalkGroups(label string, v Visitor[X], eval EvalFn) {
	eng := abm.New[keys.Key, Wire[X, B]](e.C, KeyWireBytes(), e.cellBytes, e.serve)
	e.C.Phase(e.Cfg.PhasePrefix + label)
	pending := map[keys.Key]bool{}
	todo := append([]keys.Key(nil), e.Local.Groups...)
	var stack, missing []keys.Key
	e.setVisitor(v)
	defer func() { e.curWalk = nil }()
	for {
		var deferred []keys.Key
		for _, gk := range todo {
			g := e.Local.Cell(gk)
			e.begin(gk, g)
			missing = missing[:0]
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
					v.Leaf(c)
					continue
				}
				a := e.desc.Test(c)
				if a == tree.Open && c.First == sentinelUnfetched {
					// A remote leaf branch is fetched only to be opened.
					in := e.importedPtr(k)
					if in == nil {
						missing = append(missing, k)
						continue
					}
					c, x = &in.Cell, in.Extra
				}
				visits++
				switch {
				case a == tree.Skip:
				case a == tree.Accept:
					e.desc.Accepted = append(e.desc.Accepted, c)
					e.extras = append(e.extras, x)
				case c.Leaf:
					v.Leaf(c)
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
				v.Cells(e.desc.Accepted, e.extras)
				if eval != nil {
					eval(gk, g, &e.Counters)
				}
				continue
			}
			e.Counters.Deferred++
			deferred = append(deferred, gk)
			for _, mk := range missing {
				if !pending[mk] {
					pending[mk] = true
					e.Counters.Requests++
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
