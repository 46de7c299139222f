package parallel

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/msg"
	"repro/internal/vec"
)

// overlapRun runs one full force evaluation at np ranks with the given
// eval pipeline and returns the per-ID forces plus the rank-summed
// interaction counters.
func overlapRun(t *testing.T, np, n, workers, slots int) (map[int64]vec.V3, map[int64]float64, diag.Counters) {
	t.Helper()
	mac := grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true}
	acc := make(map[int64]vec.V3, n)
	pot := make(map[int64]float64, n)
	var sum diag.Counters
	var mu sync.Mutex
	msg.Run(np, func(c *msg.Comm) {
		global := ic.Plummer(n, 1.0, 17)
		local := core.New(0)
		local.EnableDynamics()
		lo, hi := c.Rank()*n/np, (c.Rank()+1)*n/np
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}
		e := New(c, local, Config{
			MAC: mac, Eps2: 1e-6,
			EvalWorkers: workers, EvalSlots: slots,
		})
		defer e.Close()
		e.ComputeForces()
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < e.Sys.Len(); i++ {
			acc[e.Sys.ID[i]] = e.Sys.Acc[i]
			pot[e.Sys.ID[i]] = e.Sys.Pot[i]
		}
		sum.Add(e.Counters)
	})
	return acc, pot, sum
}

// TestOverlapBitwiseForceEquivalence is the determinism contract of
// the walk/eval pipeline: at 1, 2 and 8 ranks, eval workers must
// reproduce the inline schedule's forces bit for bit, with identical
// PP/PC/QuadPC/Traversals counts. Group body ranges are disjoint and
// the workers' counters fold as order-independent sums, so nothing
// about the schedule may leak into the physics.
func TestOverlapBitwiseForceEquivalence(t *testing.T) {
	const n = 1200
	for _, np := range []int{1, 2, 8} {
		baseAcc, basePot, baseCtr := overlapRun(t, np, n, 0, 0)
		if len(baseAcc) != n {
			t.Fatalf("np=%d: baseline covered %d of %d bodies", np, len(baseAcc), n)
		}
		acc, pot, ctr := overlapRun(t, np, n, 3, 8)
		if len(acc) != n {
			t.Fatalf("np=%d workers3: covered %d of %d bodies", np, len(acc), n)
		}
		for id, a := range baseAcc {
			if acc[id] != a || pot[id] != basePot[id] {
				t.Fatalf("np=%d workers3: body %d forces diverged: acc %v vs %v, pot %v vs %v",
					np, id, acc[id], a, pot[id], basePot[id])
			}
		}
		if ctr.PP != baseCtr.PP || ctr.PC != baseCtr.PC ||
			ctr.QuadPC != baseCtr.QuadPC || ctr.Traversals != baseCtr.Traversals {
			t.Errorf("np=%d workers3: counters diverged: PP %d/%d PC %d/%d QuadPC %d/%d Traversals %d/%d",
				np, ctr.PP, baseCtr.PP, ctr.PC, baseCtr.PC,
				ctr.QuadPC, baseCtr.QuadPC, ctr.Traversals, baseCtr.Traversals)
		}
	}
}

// TestOverlapWorkersMultiCore re-runs the worker variants with
// GOMAXPROCS raised to 4. newEvalPool clamps spawned workers to
// GOMAXPROCS-1, so on a single-core host the materialized-slot path
// (walk on the rank goroutine, eval handed to a pooled slot and drained
// by worker goroutines truly concurrently) never executes; this test
// forces it -- and is what puts that path under the race detector.
func TestOverlapWorkersMultiCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 1200
	for _, np := range []int{2, 8} {
		baseAcc, basePot, baseCtr := overlapRun(t, np, n, 0, 0)
		acc, pot, ctr := overlapRun(t, np, n, 3, 16)
		if len(acc) != n {
			t.Fatalf("np=%d: covered %d of %d bodies", np, len(acc), n)
		}
		for id, a := range baseAcc {
			if acc[id] != a || pot[id] != basePot[id] {
				t.Fatalf("np=%d: body %d forces diverged: acc %v vs %v, pot %v vs %v",
					np, id, acc[id], a, pot[id], basePot[id])
			}
		}
		if ctr.PP != baseCtr.PP || ctr.PC != baseCtr.PC ||
			ctr.QuadPC != baseCtr.QuadPC || ctr.Traversals != baseCtr.Traversals {
			t.Errorf("np=%d: counters diverged: PP %d/%d PC %d/%d QuadPC %d/%d Traversals %d/%d",
				np, ctr.PP, baseCtr.PP, ctr.PC, baseCtr.PC,
				ctr.QuadPC, baseCtr.QuadPC, ctr.Traversals, baseCtr.Traversals)
		}
	}
}

// overlapBlockRun advances the block-timestep engine with the eval
// pipeline set, returning final per-ID state and rank-0 stepper stats.
func overlapBlockRun(t *testing.T, np, n, steps int, dt, eta float64, workers int) (map[int64]vec.V3, map[int64]vec.V3, integrate.Stats) {
	t.Helper()
	mac := grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true}
	pos := make(map[int64]vec.V3, n)
	vel := make(map[int64]vec.V3, n)
	var stats integrate.Stats
	var mu sync.Mutex
	msg.Run(np, func(c *msg.Comm) {
		global := ic.Plummer(n, 1.0, 17)
		local := core.New(0)
		local.EnableDynamics()
		lo, hi := c.Rank()*n/np, (c.Rank()+1)*n/np
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}
		e := New(c, local, Config{
			MAC: mac, Eps2: 1e-6,
			EvalWorkers: workers, EvalSlots: 8,
		})
		defer e.Close()
		e.Stepper.Scheme = integrate.Block
		e.Stepper.Eta = eta
		e.Stepper.Eps = math.Sqrt(1e-6)
		e.ComputeForces()
		for s := 0; s < steps; s++ {
			e.Step(dt)
		}
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < e.Sys.Len(); i++ {
			pos[e.Sys.ID[i]] = e.Sys.Pos[i]
			vel[e.Sys.ID[i]] = e.Sys.Vel[i]
		}
		if c.Rank() == 0 {
			stats = e.Stepper.Stats
		}
	})
	return pos, vel, stats
}

// TestOverlapBlockModeBitwise runs the multi-rung block scheduler --
// whose partial evaluations walk only the active groups, leaving some
// ranks with empty active sets that still must push to the others --
// and demands bitwise-identical trajectories with the pipeline on.
func TestOverlapBlockModeBitwise(t *testing.T) {
	const n, steps, dt, eta = 1200, 3, 1e-3, 0.02
	const np = 8
	basePos, baseVel, baseStats := overlapBlockRun(t, np, n, steps, dt, eta, 0)
	if baseStats.PartialEvals == 0 {
		t.Fatalf("no partial evaluations engaged (stats %+v); the partial-walk path went unexercised", baseStats)
	}
	pos, vel, stats := overlapBlockRun(t, np, n, steps, dt, eta, 3)
	if stats.PartialEvals != baseStats.PartialEvals || stats.FullEvals != baseStats.FullEvals {
		t.Errorf("workers3: schedule diverged: %d partial + %d full evals, want %d + %d",
			stats.PartialEvals, stats.FullEvals, baseStats.PartialEvals, baseStats.FullEvals)
	}
	if len(pos) != len(basePos) {
		t.Fatalf("workers3: body count %d vs %d", len(pos), len(basePos))
	}
	for id, p := range basePos {
		if pos[id] != p || vel[id] != baseVel[id] {
			t.Fatalf("workers3: body %d diverged: pos %v vs %v, vel %v vs %v",
				id, pos[id], p, vel[id], baseVel[id])
		}
	}
}
