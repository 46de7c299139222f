package parallel

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/msg"
	"repro/internal/vec"
)

// blockRun advances the distributed engine `steps` global steps on a
// Plummer sphere over np ranks and returns the final per-ID state plus
// the rank-0 stepper stats. eta = 0 keeps the default uniform scheme.
func blockRun(t *testing.T, np, n, steps int, dt, eta float64) (map[int64]vec.V3, map[int64]vec.V3, integrate.Stats) {
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
		e := New(c, local, Config{MAC: mac, Eps2: 1e-6})
		if eta > 0 {
			e.Stepper.Scheme = integrate.Block
			e.Stepper.Eta = eta
			e.Stepper.Eps = math.Sqrt(1e-6)
		}
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

// The block scheduler with every body on rung zero must reproduce the
// uniform engine bit for bit at every rank count: same exchanges, same
// trees, same kernels, only the stepper plumbing differs.
func TestBlockOneRungBitwiseUniformParallel(t *testing.T) {
	const n, steps, dt = 1200, 3, 1e-3
	for _, np := range []int{1, 2, 8} {
		upos, uvel, _ := blockRun(t, np, n, steps, dt, 0)
		// Enormous eta: the criterion assigns rung zero everywhere.
		bpos, bvel, stats := blockRun(t, np, n, steps, dt, 1e6)
		if stats.PartialEvals != 0 || stats.FullEvals != steps {
			t.Fatalf("np=%d: one-rung block ran %d partial + %d full evals", np, stats.PartialEvals, stats.FullEvals)
		}
		if len(bpos) != len(upos) {
			t.Fatalf("np=%d: body count %d vs %d", np, len(bpos), len(upos))
		}
		for id, p := range upos {
			if bpos[id] != p || bvel[id] != uvel[id] {
				t.Fatalf("np=%d: body %d diverged: uniform pos %v vel %v, block pos %v vel %v",
					np, id, p, uvel[id], bpos[id], bvel[id])
			}
		}
	}
}

// Multi-rung block stepping across ranks: the schedule must engage
// partial evaluations with a shrunken active set, stay identical on
// every rank (it is derived from an allreduce), and keep trajectories
// close to the uniform integration at the same global dt.
func TestBlockPartialStepsParallel(t *testing.T) {
	const n, steps, dt, eta = 1200, 3, 1e-3, 0.02
	upos, _, _ := blockRun(t, 2, n, steps, dt, 0)
	bpos, _, stats := blockRun(t, 2, n, steps, dt, eta)
	if stats.PartialEvals == 0 {
		t.Fatalf("no partial evaluations engaged (stats %+v); clustered Plummer should span rungs", stats)
	}
	if stats.ActiveSinks >= stats.TotalSinks {
		t.Fatalf("active set never shrank: %d/%d", stats.ActiveSinks, stats.TotalSinks)
	}
	// Same IC, same dt, finer sub-steps for fast bodies: trajectories
	// stay within the integration error scale over a few steps.
	scale := 0.0
	for _, p := range upos {
		if r := p.Norm(); r > scale {
			scale = r
		}
	}
	worst := 0.0
	for id, p := range upos {
		if d := bpos[id].Sub(p).Norm() / scale; d > worst {
			worst = d
		}
	}
	if worst > 1e-3 {
		t.Fatalf("block trajectories deviate from uniform by %g (relative); scheduler is mis-kicking", worst)
	}
	t.Logf("active fraction %.3f, worst relative deviation %g",
		float64(stats.ActiveSinks)/float64(stats.TotalSinks), worst)
}

// One big step of block timesteps (bodies on several rungs, partial
// evaluations of the groups holding an active body, inactive bodies as
// drifted sources) leaves the total momentum where it was, to a small
// part of the momentum the step exchanged (sum m |a| dt), at one rank
// and at four.
func TestMomentumConservationBlockStep(t *testing.T) {
	const eps2, dt = 1e-6, 1e-3
	global := ic.Plummer(3000, 1.0, 5)
	for _, np := range []int{1, 4} {
		var drift, scale float64
		var stats integrate.Stats
		msg.Run(np, func(c *msg.Comm) {
			e := New(c, scatter(global, c), Config{MAC: grav.DefaultMAC(), Bucket: 16, Eps2: eps2})
			e.Stepper.Scheme, e.Stepper.Eta, e.Stepper.Eps = integrate.Block, 0.02, math.Sqrt(eps2)
			e.ComputeForces()
			var s float64
			for i := range e.Sys.Acc {
				s += e.Sys.Acc[i].Norm() * e.Sys.Mass[i]
			}
			s = msg.Allreduce(c, s, msg.SumF64, 8)
			before := momentum(e)
			e.Step(dt)
			d := momentum(e).Sub(before).Norm()
			if c.Rank() == 0 {
				drift, scale, stats = d, s, e.Stepper.Stats
			}
		})
		if stats.PartialEvals == 0 {
			t.Fatalf("np=%d: no partial evaluation ran: %+v", np, stats)
		}
		// Measured 1.85e-5 (np 1) and 1.95e-5 (np 4) of the exchanged
		// momentum.
		if drift > 1e-4*scale*dt {
			t.Fatalf("np=%d: momentum moved by %g in one big step, %g of the %g exchanged", np, drift, drift/(scale*dt), scale*dt)
		}
		t.Logf("np=%d: momentum moved by %.3g of the %g exchanged", np, drift/(scale*dt), scale*dt)
	}
}
