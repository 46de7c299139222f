package vortex

import (
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/keys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// TreeEval is the one-rank reference the distributed engine is held to
// (TestParallelMatchesTreeEval). It evaluates velocities and strength
// derivatives through the hashed oct-tree: the tree is built with
// |alpha| as the structural "mass" (so the center of mass is the
// strength-weighted centroid and the Barnes-Hut MAC sees the right
// geometry), far clusters apply their monopole (total strength at the
// centroid), and near leaves fall back to pairwise tiles.
//
// The system is key-sorted in place; sys.Vel receives the velocities
// and the returned slice holds dalpha/dt aligned with the sorted
// order. theta is the Barnes-Hut opening angle.
func TreeEval(sys *core.System, sigma, theta float64) ([]vec.V3, diag.Counters) {
	var ctr diag.Counters
	n := sys.Len()
	sys.EnableVortex()
	sys.EnableDynamics()
	// Structural mass = |alpha|.
	for i := 0; i < n; i++ {
		sys.Mass[i] = sys.Alpha[i].Norm()
	}
	d := keys.NewDomain(sys.Pos)
	sys.AssignKeys(d)
	sys.SortByKey()
	mac := grav.MACParams{Kind: grav.MACBarnesHut, Theta: theta, Quad: false}
	tr := tree.Build(sys, d, mac, 32)
	ctr.CellsBuilt += uint64(tr.NCells())

	// Prefix sums of alpha give every cell's total strength from its
	// contiguous body range.
	prefA := make([]vec.V3, n+1)
	for i := 0; i < n; i++ {
		prefA[i+1] = prefA[i].Add(sys.Alpha[i])
	}

	// Two-phase evaluation, mirroring the gravity walker: phase 1
	// builds the group's interaction list (SoA source columns plus a
	// monopole slab), phase 2 sweeps it with the batched kernels in
	// soa.go. The list, target block and stack persist across groups,
	// so the per-group steady state allocates nothing.
	dAlpha := make([]vec.V3, n)
	s2 := sigma * sigma
	var stack []keys.Key
	var list vList
	var tg vTargets
	for _, gk := range tr.Groups {
		g := tr.Cell(gk)
		lo, hi := g.First, g.First+g.N
		gpos := sys.Pos[lo:hi]
		galpha := sys.Alpha[lo:hi]
		gc, gr := tree.GroupSphere(gpos)
		list.reset()
		stack = stack[:0]
		stack = append(stack, keys.Root)
		for len(stack) > 0 {
			k := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			c := tr.Cell(k)
			ctr.Traversals++
			if c.Mp.M == 0 {
				continue // zero total |alpha|: no contribution
			}
			if k == gk {
				// Own cell: sources one by one, whatever the MAC would say.
				list.addBodies(gpos, galpha)
				continue
			}
			dd := c.Mp.COM.Sub(gc).Norm()
			if dd-gr > c.RCrit && dd > gr {
				list.cells = append(list.cells, cellMoment{
					ASum:     prefA[c.First+c.N].Sub(prefA[c.First]),
					Centroid: c.Mp.COM,
				})
				continue
			}
			if c.Leaf {
				list.addBodies(sys.Pos[c.First:c.First+c.N], sys.Alpha[c.First:c.First+c.N])
				continue
			}
			for oct := 0; oct < 8; oct++ {
				if c.ChildMask&(1<<uint(oct)) != 0 {
					stack = append(stack, k.Child(oct))
				}
			}
		}
		tg.load(gpos, galpha)
		ctr.VortexPP += evalVelMono(&tg, list.cells, s2)
		ctr.VortexPP += evalVelPP(&tg, &list, s2)
		tg.store(sys.Vel[lo:hi], dAlpha[lo:hi])
	}
	return dAlpha, ctr
}
