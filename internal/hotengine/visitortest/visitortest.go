// Package visitortest checks the contract the push's safety rests on:
// the test owners run over a peer's bound opens every cell a walk of a
// group inside it opens, for the engine's MAC and for a range query.
package visitortest

import (
	"math/rand"
	"testing"

	"repro/internal/hotengine"
	"repro/internal/keys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// MAC fails t if tree.ClassifyBound over a bound does not open a cell
// that tree.Classify opens against a group's bounding sphere: the
// engine's test of every MAC walk, and its push's (Sound with no query).
func MAC(t testing.TB, tr *tree.Tree, seed int64) {
	t.Helper()
	Sound(t, nil, tr, seed)
}

// Sound fails t if q.TestBound over a bound does not open a cell that
// q's traversal (q.TestBound over one group's q.Sphere) opens; q nil
// checks the MAC. It draws random runs of one to sixteen consecutive
// groups of tr (an exchanged engine's local tree), reduces each run's
// spheres to a bound the way the engine does, and holds every group of
// the run against every cell of the tree. It also fails if the check
// was vacuous: if no group opened a cell, or no bound pruned one.
func Sound(t testing.TB, q hotengine.RangeQuery, tr *tree.Tree, seed int64) {
	t.Helper()
	sphere := func(g *tree.Cell) (vec.V3, float64) {
		return tree.GroupSphere(tr.Sys.Pos[g.First : g.First+g.N])
	}
	d := tree.Descent{}
	if q != nil {
		sphere, d.Prune = q.Sphere, q
	}
	var cells []*tree.Cell
	for stack := []keys.Key{keys.Root}; len(stack) > 0; {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := tr.Cell(k)
		cells = append(cells, c)
		for oct := 0; oct < 8; oct++ {
			if c.ChildMask&(1<<uint(oct)) != 0 {
				stack = append(stack, k.Child(oct))
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	opened, pruned := 0, 0
	for trial := 0; trial < 40; trial++ {
		// Every other run is a single group: its bound is its own
		// sphere, with no slack to hide a bound test that is too eager.
		lo, n := rng.Intn(len(tr.Groups)), 1
		if trial%2 == 1 {
			n += rng.Intn(16)
		}
		run := tr.Groups[lo:min(len(tr.Groups), lo+n)]
		var b tree.Bound
		for _, gk := range run {
			b.Add(sphere(tr.Cell(gk)))
		}
		for _, c := range cells {
			if d.TestBound(c, &b) != tree.Open {
				pruned++
			}
		}
		for _, gk := range run {
			gc, gr := sphere(tr.Cell(gk))
			d.Aim(gk, gc, gr)
			for _, c := range cells {
				if d.Test(c) != tree.Open {
					continue
				}
				opened++
				if a := d.TestBound(c, &b); a != tree.Open {
					t.Fatalf("group %v opens cell %v, but its bound %+v gives %v", gk, c.Key, b, a)
				}
			}
		}
	}
	if opened == 0 || pruned == 0 {
		t.Fatalf("vacuous: %d cells opened by a group, %d pruned by a bound", opened, pruned)
	}
}
