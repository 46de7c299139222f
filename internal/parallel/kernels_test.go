package parallel

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
)

// runKernels runs one force evaluation at np ranks and returns
// per-body-ID forces and the summed interaction counts. With karp set
// the engine decomposes, builds and walks exactly as ComputeForces
// does, but each group's interaction list is replayed entry by entry
// through the scalar Karp kernels (grav.M2P/PPTile/PPSelf) instead of
// the production Evaluate: the same lists, the paper's arithmetic.
func runKernels(t *testing.T, np, n int, karp bool, mac grav.MACParams, eps2 float64) (map[int64]vec.V3, map[int64]float64, uint64, uint64) {
	t.Helper()
	acc := make(map[int64]vec.V3, n)
	pot := make(map[int64]float64, n)
	var mu sync.Mutex
	var pp, pc uint64
	msg.Run(np, func(c *msg.Comm) {
		global := ic.Plummer(n, 1.0, 17)
		local := core.New(0)
		local.EnableDynamics()
		lo, hi := c.Rank()*n/c.Size(), (c.Rank()+1)*n/c.Size()
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}
		e := New(c, local, Config{MAC: mac, Eps2: eps2})
		if karp {
			e.Exchange()
			e.WalkGroups("walk", &visitor{e: e}, func(_ keys.Key, g *tree.Cell, ctr *diag.Counters) {
				karpEvaluate(e, &e.walker.List, g, ctr)
			})
		} else {
			e.ComputeForces()
		}
		mu.Lock()
		defer mu.Unlock()
		pp += e.Counters.PP
		pc += e.Counters.PC
		for i := 0; i < e.Sys.Len(); i++ {
			acc[e.Sys.ID[i]] = e.Sys.Acc[i]
			pot[e.Sys.ID[i]] = e.Sys.Pot[i]
		}
	})
	return acc, pot, pp, pc
}

// karpEvaluate applies list l to group g through the scalar Karp
// kernels, overwriting the group's Acc and Pot rows.
func karpEvaluate(e *Engine, l *grav.InteractionList, g *tree.Cell, ctr *diag.Counters) {
	sys, quad, eps2 := e.Sys, e.Cfg.MAC.Quad, e.Cfg.Eps2
	lo, hi := g.First, g.First+g.N
	gpos, acc, pot := sys.Pos[lo:hi], sys.Acc[lo:hi], sys.Pot[lo:hi]
	for i := range acc {
		acc[i], pot[i] = vec.V3{}, 0
	}
	for c := 0; c < l.NCells(); c++ {
		mp := l.Cell(c)
		ctr.PC += grav.M2P(gpos, acc, pot, &mp, quad, eps2)
	}
	spos := make([]vec.V3, l.NSources())
	smass := make([]float64, l.NSources())
	for j := range spos {
		spos[j], smass[j] = l.Source(j)
	}
	ctr.PP += grav.PPTile(gpos, acc, pot, spos, smass, eps2)
	if l.Self {
		ctr.PP += grav.PPSelf(gpos, sys.Mass[lo:hi], acc, pot, eps2)
	}
}

// TestKernelEquivalenceAcrossRanks holds the production kernels
// (float32 lanes, Newton reciprocal square root and FMAs, eight or
// four targets × two sources per register where the host has AVX-512
// or AVX2) to
// the paper's: at np = 1, 2 and 8 the engine must count exactly the
// interactions a float64 Karp replay of the same lists counts, and its
// forces must agree with the replay's to the float32 kernels'
// round-off, grav.RoundOff of the largest acceleration (and relative
// in the potential).
func TestKernelEquivalenceAcrossRanks(t *testing.T) {
	const n = 1200
	mac := grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true}
	const eps2 = 1e-6

	for _, np := range []int{1, 2, 8} {
		accT, potT, ppT, pcT := runKernels(t, np, n, false, mac, eps2)
		accR, potR, ppR, pcR := runKernels(t, np, n, true, mac, eps2)
		if ppT != ppR || pcT != pcR {
			t.Errorf("np=%d: counts production PP=%d PC=%d, Karp replay PP=%d PC=%d", np, ppT, pcT, ppR, pcR)
		}
		if len(accT) != n || len(accR) != n {
			t.Fatalf("np=%d: missing bodies (production %d, Karp %d of %d)", np, len(accT), len(accR), n)
		}
		accScale := 0.0
		for _, a := range accR {
			if v := a.Norm(); v > accScale {
				accScale = v
			}
		}
		maxErr := 0.0
		for id, ar := range accR {
			at := accT[id]
			if diff := at.Sub(ar).Norm() / accScale; diff > maxErr {
				maxErr = diff
			}
			pr, pt := potR[id], potT[id]
			if d := pr - pt; d > grav.RoundOff*(-pr) || d < -grav.RoundOff*(-pr) {
				t.Errorf("np=%d body %d: potential production %g Karp %g", np, id, pt, pr)
			}
		}
		if maxErr > grav.RoundOff {
			t.Errorf("np=%d: max relative force difference production vs Karp %g > %g", np, maxErr, grav.RoundOff)
		}
	}
}
