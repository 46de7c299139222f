package vortex

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/vec"
)

const (
	eqSigma = 0.15
	eqTheta = 0.4
)

// ringPair is the test problem: two coaxial vortex rings, the
// configuration the paper's vortex runs fused.
func ringPair() *core.System {
	sys := core.New(0)
	sys.EnableDynamics()
	sys.EnableVortex()
	axis := vec.V3{Z: 1}
	ic.VortexRing(sys, 1.0, 1.0, 0.15, vec.V3{Z: -0.4}, axis, 48, 8, 3)
	ic.VortexRing(sys, 1.0, 1.0, 0.15, vec.V3{Z: 0.4}, axis, 48, 8, 4)
	return sys
}

func scatterVortex(global *core.System, c *msg.Comm) *core.System {
	n := global.Len()
	lo, hi := c.Rank()*n/c.Size(), (c.Rank()+1)*n/c.Size()
	local := core.New(0)
	local.EnableDynamics()
	local.EnableVortex()
	for i := lo; i < hi; i++ {
		local.AppendFrom(global, i)
	}
	return local
}

// TestParallelMatchesTreeEval compares the distributed vortex engine
// at 1, 2 and 8 ranks against the serial TreeEval on the ring pair.
// One rank must be bit-identical (same sort, same interaction lists,
// same batched kernel sweep order) with identical interaction counts;
// on more ranks the boundary-refined leaves reshape the interaction
// lists, so velocities and stretching agree to the MAC error scale.
func TestParallelMatchesTreeEval(t *testing.T) {
	serial := ringPair()
	sd, sctr := TreeEval(serial, eqSigma, eqTheta)
	n := serial.Len()
	refVel := make(map[int64]vec.V3, n)
	refDA := make(map[int64]vec.V3, n)
	velScale, daScale := 0.0, 0.0
	for i := 0; i < n; i++ {
		refVel[serial.ID[i]] = serial.Vel[i]
		refDA[serial.ID[i]] = sd[i]
		if v := serial.Vel[i].Norm(); v > velScale {
			velScale = v
		}
		if a := sd[i].Norm(); a > daScale {
			daScale = a
		}
	}

	for _, np := range []int{1, 2, 8} {
		var mu sync.Mutex
		var pp uint64
		exact := true
		maxVelErr, maxDAErr := 0.0, 0.0
		msg.Run(np, func(c *msg.Comm) {
			e := NewParallel(c, scatterVortex(ringPair(), c), eqSigma, eqTheta)
			da := e.Eval()
			mu.Lock()
			defer mu.Unlock()
			pp += e.Counters.VortexPP
			for i := 0; i < e.Sys.Len(); i++ {
				id := e.Sys.ID[i]
				if e.Sys.Vel[i] != refVel[id] || da[i] != refDA[id] {
					exact = false
				}
				if d := e.Sys.Vel[i].Sub(refVel[id]).Norm() / velScale; d > maxVelErr {
					maxVelErr = d
				}
				if d := da[i].Sub(refDA[id]).Norm() / daScale; d > maxDAErr {
					maxDAErr = d
				}
			}
		})
		if np == 1 {
			if !exact {
				t.Errorf("np=1: velocities or dalpha differ bitwise from TreeEval (vel %g, dalpha %g)", maxVelErr, maxDAErr)
			}
			if pp != sctr.VortexPP {
				t.Errorf("np=1: VortexPP = %d, serial = %d", pp, sctr.VortexPP)
			}
		} else {
			if maxVelErr > 1e-2 || maxDAErr > 1e-2 {
				t.Errorf("np=%d: max relative error vel %g, dalpha %g", np, maxVelErr, maxDAErr)
			}
			// Boundary-refined leaves are smaller, so more clusters
			// pass the MAC as monopoles and pairwise counts drop.
			ratio := float64(pp) / float64(sctr.VortexPP)
			if ratio < 0.75 || ratio > 1.3 {
				t.Errorf("np=%d: VortexPP ratio vs serial %g", np, ratio)
			}
		}
	}
}

// remeshAt remeshes global on np ranks onto the lattice of spacing h
// and returns the new particles in ID order with the global counts
// Remesh reported. Each rank takes its
// domain and splits from an exchange of global's slabs; with piled set
// the last rank then holds every particle and the others none, as far
// from the ranks that own their nodes as a step could leave them.
func remeshAt(t *testing.T, global *core.System, np int, piled bool, h, cut float64) (out *core.System, before, after int) {
	t.Helper()
	systems := make([]*core.System, np)
	msg.Run(np, func(c *msg.Comm) {
		e := NewParallel(c, scatterVortex(global, c), eqSigma, eqTheta)
		e.Exchange()
		if piled {
			e.Sys = core.New(0)
			if c.Rank() == np-1 {
				e.Sys = global // Remesh reads the particles and replaces them
			}
		}
		b, a := e.Remesh(h, cut)
		systems[c.Rank()] = e.Sys
		if c.Rank() == 0 {
			before, after = b, a
		}
	})
	out = core.New(after)
	out.EnableVortex()
	seen := make([]bool, after)
	for _, s := range systems {
		for i := 0; i < s.Len(); i++ {
			id := s.ID[i]
			if id < 0 || id >= int64(after) || seen[id] {
				t.Fatalf("np=%d: ID %d out of range or repeated", np, id)
			}
			seen[id] = true
			out.Pos[id], out.Alpha[id] = s.Pos[i], s.Alpha[i]
		}
	}
	return out, before, after
}

// TestRemeshIsPartitionIndependent holds Remesh to a function of the
// global particle set: the ring pair after three steps, remeshed on 1,
// 2 and 8 ranks, from exchanged slabs and piled on one rank, and a tiny
// pair on 6 ranks the same two ways, gives the same IDs, positions and
// strengths bit for bit as on one rank.
func TestRemeshIsPartitionIndependent(t *testing.T) {
	var stepped *core.System
	msg.Run(1, func(c *msg.Comm) {
		e := NewParallel(c, ringPair(), eqSigma, eqTheta)
		for s := 0; s < 3; s++ {
			e.Step(0.02)
		}
		stepped = e.Sys
	})
	for _, tc := range []struct {
		global *core.System
		nps    []int
	}{
		{stepped, []int{2, 8}},
		{twoRings(8, 1), []int{6}},
	} {
		ref, before, after := remeshAt(t, tc.global, 1, false, eqSigma/2, 1e-4)
		if before != tc.global.Len() || after <= before {
			t.Fatalf("one rank: remesh %d -> %d of %d particles", before, after, tc.global.Len())
		}
		for _, np := range append([]int{1}, tc.nps...) {
			for _, piled := range []bool{false, true} {
				got, b, a := remeshAt(t, tc.global, np, piled, eqSigma/2, 1e-4)
				if b != before || a != after {
					t.Fatalf("np=%d piled=%v: %d -> %d, one rank %d -> %d", np, piled, b, a, before, after)
				}
				for i := 0; i < after; i++ {
					if got.Pos[i] != ref.Pos[i] || got.Alpha[i] != ref.Alpha[i] {
						t.Fatalf("np=%d piled=%v: particle %d differs from one rank", np, piled, i)
					}
				}
			}
		}
	}
}
