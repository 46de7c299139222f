package vortex

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/vec"
)

// M4Prime is the third-order interpolation kernel of Monaghan used by
// vortex methods for remeshing: it conserves the zeroth, first and
// second moments of the interpolated quantity.
func M4Prime(x float64) float64 {
	x = math.Abs(x)
	switch {
	case x < 1:
		return 1 - 2.5*x*x + 1.5*x*x*x
	case x < 2:
		return 0.5 * (2 - x) * (2 - x) * (1 - x)
	default:
		return 0
	}
}

// node is a lattice node, (x, y, z) times the spacing.
type node struct{ x, y, z int }

// pos is the node's position on the lattice of spacing h.
func (nd node) pos(h float64) vec.V3 {
	return vec.V3{X: float64(nd.x) * h, Y: float64(nd.y) * h, Z: float64(nd.z) * h}
}

// spread calls f for every lattice node of spacing h the M4' stencil
// of a particle at p reaches, with its weight.
func spread(p vec.V3, h float64, f func(nd node, w float64)) {
	px, py, pz := p.X/h, p.Y/h, p.Z/h
	ix, iy, iz := int(math.Floor(px)), int(math.Floor(py)), int(math.Floor(pz))
	for dx := -1; dx <= 2; dx++ {
		wx := M4Prime(px - float64(ix+dx))
		if wx == 0 {
			continue
		}
		for dy := -1; dy <= 2; dy++ {
			wy := M4Prime(py - float64(iy+dy))
			if wy == 0 {
				continue
			}
			for dz := -1; dz <= 2; dz++ {
				if wz := M4Prime(pz - float64(iz+dz)); wz != 0 {
					f(node{ix + dx, iy + dy, iz + dz}, wx*wy*wz)
				}
			}
		}
	}
}

// Remesh redistributes the particle strengths onto the regular lattice
// of spacing h (origin 0) with the M4' kernel and replaces the
// particles of every rank by the lattice nodes whose strength
// magnitude exceeds cut times the global maximum. This restores the
// core-overlap condition the method needs; it is the operation that
// grew the paper's ring-fusion run from 57,000 to 360,000 particles.
// It returns the global particle counts before and after.
//
// Remesh is collective, and uses the Domain and Splits of the last
// evaluation (so it follows a step: a runner.Plan's OnStep at step >=
// 0): a node belongs to the rank whose interval holds its key.
// Each particle travels, in one alltoallv, to every rank owning one of
// its nodes, and the owner sums each node's contributions in ascending
// particle ID. One allreduce finds the maximum, and one allgather of
// kept counts numbers the new particles in global (key, x, y, z) node
// order. The result depends on the global particle set alone, never on
// the rank count or how the particles were spread over the ranks.
func (e *ParallelEngine) Remesh(h, cut float64) (before, after int) {
	me := e.C.Rank()
	owner := func(nd node) int { return e.OwnerOf(e.Domain.KeyOf(nd.pos(h))) }

	send := make([][]saved, e.C.Size())
	var to []int
	for i := 0; i < e.Sys.Len(); i++ {
		to = to[:0]
		spread(e.Sys.Pos[i], h, func(nd node, _ float64) {
			if r := owner(nd); !slices.Contains(to, r) {
				to = append(to, r)
			}
		})
		for _, r := range to {
			send[r] = append(send[r], saved{ID: e.Sys.ID[i], X: e.Sys.Pos[i], A: e.Sys.Alpha[i]})
		}
	}
	var in []saved
	for _, b := range msg.Alltoallv(e.C, send, 56) {
		in = append(in, b...)
	}
	slices.SortFunc(in, func(a, b saved) int { return cmp.Compare(a.ID, b.ID) })
	acc := make(map[node]vec.V3)
	for _, p := range in {
		spread(p.X, h, func(nd node, w float64) {
			if owner(nd) == me {
				acc[nd] = acc[nd].Add(p.A.Scale(w))
			}
		})
	}

	maxA := 0.0
	for _, a := range acc {
		maxA = math.Max(maxA, a.Norm())
	}
	thresh := cut * msg.Allreduce(e.C, maxA, msg.MaxF64, 8)
	type kept struct {
		key keys.Key
		nd  node
	}
	var out []kept
	for nd, a := range acc {
		if a.Norm() > thresh {
			out = append(out, kept{e.Domain.KeyOf(nd.pos(h)), nd})
		}
	}
	slices.SortFunc(out, func(a, b kept) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.nd.x, b.nd.x),
			cmp.Compare(a.nd.y, b.nd.y), cmp.Compare(a.nd.z, b.nd.z))
	})

	counts := msg.Allgather(e.C, [2]int{e.Sys.Len(), len(out)}, 16)
	first := 0
	for r, c := range counts {
		before, after = before+c[0], after+c[1]
		if r < me {
			first += c[1]
		}
	}
	sys := core.New(len(out))
	sys.EnableDynamics()
	sys.EnableVortex()
	for i, k := range out {
		sys.Pos[i], sys.Alpha[i] = k.nd.pos(h), acc[k.nd]
		sys.Mass[i] = sys.Alpha[i].Norm()
		sys.ID[i] = int64(first + i)
	}
	e.Sys = sys
	return before, after
}
