// Package visitortest checks the contract between the test a
// hotengine.Visitor's traversals run and its TestBound, the one the
// push's safety rests on.
package visitortest

import (
	"math/rand"
	"testing"

	"repro/internal/hotengine"
	"repro/internal/keys"
	"repro/internal/tree"
)

// Sound fails t if v.TestBound does not open a cell that a traversal
// for v opens (by tree.Classify against v.Sphere, or by TestBound over
// that sphere alone when v.MAC is false: tree.Descent.Test). It draws random runs of one to sixteen consecutive groups of tr (an exchanged engine's
// local tree), reduces each run's spheres to a bound the way the engine
// does, and holds every group of the run against every cell of the
// tree. It also fails if the check was vacuous: if no group opened a
// cell, or no bound pruned one.
func Sound[X any](t testing.TB, v hotengine.Visitor[X], tr *tree.Tree, seed int64) {
	t.Helper()
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
	var d tree.Descent
	if !v.MAC() {
		d.Prune = v
	}
	rng := rand.New(rand.NewSource(seed))
	opened, pruned := 0, 0
	for trial := 0; trial < 40; trial++ {
		// Every other run is a single group: its bound is its own
		// sphere, with no slack to hide a TestBound that is too eager.
		lo, n := rng.Intn(len(tr.Groups)), 1
		if trial%2 == 1 {
			n += rng.Intn(16)
		}
		run := tr.Groups[lo:min(len(tr.Groups), lo+n)]
		var b tree.Bound
		for _, gk := range run {
			b.Add(v.Sphere(tr.Cell(gk)))
		}
		for _, c := range cells {
			if v.TestBound(c, &b) != tree.Open {
				pruned++
			}
		}
		for _, gk := range run {
			gc, gr := v.Sphere(tr.Cell(gk))
			d.Aim(gk, gc, gr)
			for _, c := range cells {
				if d.Test(c) != tree.Open {
					continue
				}
				opened++
				if a := v.TestBound(c, &b); a != tree.Open {
					t.Fatalf("group %v opens cell %v, but its bound %+v gives %v", gk, c.Key, b, a)
				}
			}
		}
	}
	if opened == 0 || pruned == 0 {
		t.Fatalf("vacuous: %d cells opened by a group, %d pruned by a bound", opened, pruned)
	}
}
