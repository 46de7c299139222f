package vortex_test

import (
	"testing"

	"repro/internal/diag"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/runner"
	"repro/internal/vec"
	"repro/internal/vortex"
)

// totals is the global total strength and linear impulse, summed over
// ranks in rank order.
func totals(e *vortex.ParallelEngine) [2]vec.V3 {
	mine := [2]vec.V3{vortex.TotalStrength(e.Sys.Alpha), vortex.LinearImpulse(e.Sys.Pos, e.Sys.Alpha)}
	return msg.Allreduce(e.C, mine, func(a, b [2]vec.V3) [2]vec.V3 {
		return [2]vec.V3{a[0].Add(b[0]), a[1].Add(b[1])}
	}, 48)
}

// TestRingPairInvariants gates the vortex invariants on the one vortex
// path: the ring pair through runner.Run at 1 and 2 ranks, 30 steps,
// remeshing every 10 with no cutoff. Each remesh conserves total
// strength to roundoff (M4' reproduces the zeroth moment) and linear
// impulse (the first); the dynamics drifts the impulse over the run by
// a measured amount, and the ceiling is about twice that. The lattice
// spacing is sigma, not the drivers' sigma/2: with no cutoff the node
// count is set by the lattice, and this keeps the run to ~14 000
// particles. (A 24 x 3 ring is too coarse: its impulse drifts by 1.5
// over 30 steps at either cutoff.)
func TestRingPairInvariants(t *testing.T) {
	const (
		steps, every = 30, 10
		// Measured: 0.037164 at np = 1, 0.037189 at np = 2.
		driftCeiling = 0.075
	)
	for _, np := range []int{1, 2} {
		var i0, i1 vec.V3
		remeshes := 0
		_, err := runner.Run(runner.Plan{
			NP: np, Steps: steps, DT: 0.02, System: ic.RingPair(runner.RingSigma, 32, 4),
			Physics: runner.Vortex{Sigma: runner.RingSigma, Theta: runner.RingTheta},
			OnStep: func(rank, step int, en runner.Engine, _ diag.Counters) {
				e := en.(*vortex.ParallelEngine)
				before := totals(e)
				if rank == 0 && step == -1 {
					i0 = before[1]
				}
				if step < 0 || (step+1)%every != 0 {
					return
				}
				e.Remesh(runner.RingSigma, 0)
				after := totals(e)
				if rank != 0 {
					return
				}
				remeshes++
				i1 = after[1]
				if d := after[0].Sub(before[0]).Norm(); d > 1e-12 {
					t.Errorf("np=%d step %d: remesh moved total strength by %g", np, step, d)
				}
				if d := after[1].Sub(before[1]).Norm() / before[1].Norm(); d > 1e-10 {
					t.Errorf("np=%d step %d: remesh moved linear impulse by %g relative", np, step, d)
				}
			},
		}, runner.Attachments{})
		if err != nil {
			t.Fatal(err)
		}
		if remeshes != steps/every {
			t.Fatalf("np=%d: %d remeshes, want %d", np, remeshes, steps/every)
		}
		drift := i1.Sub(i0).Norm() / i0.Norm()
		t.Logf("np=%d: impulse drift over %d steps %.6f", np, steps, drift)
		if drift > driftCeiling {
			t.Errorf("np=%d: impulse drift %g over %d steps, ceiling %g", np, drift, steps, driftCeiling)
		}
	}
}
