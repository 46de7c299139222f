package parallel

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/hotengine/visitortest"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/vec"
)

// globalCloud builds the reference body set: clustered so the tree is
// adaptive and the decomposition nontrivial.
func globalCloud(n int, seed int64) *core.System {
	rng := rand.New(rand.NewSource(seed))
	sys := core.New(n)
	sys.EnableDynamics()
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			sys.Pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		case 1:
			sys.Pos[i] = vec.V3{X: 0.2 + 0.03*rng.NormFloat64(), Y: 0.8 + 0.03*rng.NormFloat64(), Z: 0.5 + 0.03*rng.NormFloat64()}
		default:
			sys.Pos[i] = vec.V3{X: 0.7 + 0.05*rng.NormFloat64(), Y: 0.3 + 0.05*rng.NormFloat64(), Z: 0.6 + 0.05*rng.NormFloat64()}
		}
		sys.Mass[i] = 1.0 / float64(n)
		sys.Vel[i] = vec.V3{X: 0.1 * rng.NormFloat64(), Y: 0.1 * rng.NormFloat64(), Z: 0.1 * rng.NormFloat64()}
	}
	return sys
}

// scatter hands rank r a block slice of the global set.
func scatter(global *core.System, c *msg.Comm) *core.System {
	n := global.Len()
	lo, hi := c.Rank()*n/c.Size(), (c.Rank()+1)*n/c.Size()
	local := core.New(0)
	local.EnableDynamics()
	for i := lo; i < hi; i++ {
		local.AppendFrom(global, i)
	}
	return local
}

// directRef computes the exact softened forces for all bodies.
func directRef(sys *core.System, eps2 float64) ([]vec.V3, []float64) {
	n := sys.Len()
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := sys.Pos[j].Sub(sys.Pos[i])
			r2 := d.Norm2() + eps2
			rinv := 1 / math.Sqrt(r2)
			acc[i] = acc[i].Add(d.Scale(sys.Mass[j] * rinv * rinv * rinv))
			pot[i] -= sys.Mass[j] * rinv
		}
	}
	return acc, pot
}

func cfg() Config {
	return Config{
		MAC:  grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-6, Quad: true},
		Eps2: 1e-6,
	}
}

// rmsNorm returns the RMS magnitude of a vector field: the paper
// quotes force accuracy as error relative to the RMS force, since
// per-body relative error diverges for bodies whose net force nearly
// cancels.
func rmsNorm(v []vec.V3) float64 {
	s := 0.0
	for i := range v {
		s += v[i].Norm2()
	}
	return math.Sqrt(s / float64(len(v)))
}

func TestParallelForcesMatchDirect(t *testing.T) {
	const n = 1200
	global := globalCloud(n, 1)
	wantAcc, wantPot := directRef(global, 1e-6)
	aRMS := rmsNorm(wantAcc)

	for _, np := range []int{1, 2, 4, 7} {
		var mu sync.Mutex
		seen := 0
		var worstAcc float64
		msg.Run(np, func(c *msg.Comm) {
			e := New(c, scatter(global, c), cfg())
			ctr := e.ComputeForces()
			if ctr.Interactions() == 0 && e.Sys.Len() > 0 {
				t.Errorf("np=%d rank %d: no interactions", np, c.Rank())
			}
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < e.Sys.Len(); i++ {
				id := e.Sys.ID[i]
				rel := e.Sys.Acc[i].Sub(wantAcc[id]).Norm() / aRMS
				if rel > worstAcc {
					worstAcc = rel
				}
				if math.Abs(e.Sys.Pot[i]-wantPot[id]) > 1e-3*math.Abs(wantPot[id]) {
					t.Errorf("np=%d body %d: pot %g vs %g", np, id, e.Sys.Pot[i], wantPot[id])
				}
				seen++
			}
		})
		if seen != n {
			t.Fatalf("np=%d: saw %d bodies, want %d", np, seen, n)
		}
		if worstAcc > 1e-3 {
			t.Fatalf("np=%d: worst force error %g of RMS", np, worstAcc)
		}
	}
}

func TestParallelMatchesSingleRankBitwise(t *testing.T) {
	// Forces on P ranks should agree with P=1 to floating-point
	// reassociation levels. (Not bit-identical: the P=1 tree is not
	// force-split at interval boundaries, so traversal structure can
	// differ, but both satisfy the same error bound. Compare against
	// the direct reference instead for tight agreement, and between
	// each other loosely.)
	const n = 600
	global := globalCloud(n, 2)
	ref := make([]vec.V3, n)
	msg.Run(1, func(c *msg.Comm) {
		e := New(c, scatter(global, c), cfg())
		e.ComputeForces()
		for i := 0; i < e.Sys.Len(); i++ {
			ref[e.Sys.ID[i]] = e.Sys.Acc[i]
		}
	})
	aRMS := rmsNorm(ref)
	var mu sync.Mutex
	msg.Run(3, func(c *msg.Comm) {
		e := New(c, scatter(global, c), cfg())
		e.ComputeForces()
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < e.Sys.Len(); i++ {
			id := e.Sys.ID[i]
			if rel := e.Sys.Acc[i].Sub(ref[id]).Norm() / aRMS; rel > 2e-3 {
				t.Errorf("body %d: P=3 force deviates from P=1 by %g of RMS", id, rel)
			}
		}
	})
}

func TestRemoteTrafficHappens(t *testing.T) {
	const n = 800
	global := globalCloud(n, 3)
	var mu sync.Mutex
	totalRemote := 0
	w := msg.Run(4, func(c *msg.Comm) {
		e := New(c, scatter(global, c), cfg())
		e.ComputeForces()
		mu.Lock()
		defer mu.Unlock()
		totalRemote += e.RemoteCells
	})
	if totalRemote == 0 {
		t.Fatal("no remote cells imported; traversal never crossed ranks")
	}
	walk := w.RankTraffic(0).Phases["walk"]
	if walk == nil || walk.Bytes == 0 {
		t.Fatal("no walk-phase traffic recorded")
	}
}

func TestEnergyConservationParallel(t *testing.T) {
	const n = 400
	global := globalCloud(n, 4)
	var drift float64
	msg.Run(3, func(c *msg.Comm) {
		e := New(c, scatter(global, c), Config{
			MAC:  grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-7, Quad: true},
			Eps2: 1e-3, // soft enough for the chosen dt
		})
		e.ComputeForces()
		k0, p0 := e.Energy()
		e0 := k0 + p0
		for s := 0; s < 20; s++ {
			e.Step(2e-4)
		}
		k1, p1 := e.Energy()
		if c.Rank() == 0 {
			drift = math.Abs((k1 + p1 - e0) / e0)
		}
	})
	if drift > 1e-3 {
		t.Fatalf("relative energy drift %g over 20 steps", drift)
	}
}

// momentum is the world's total momentum: the ranks' records summed
// (collective).
func momentum(e *Engine) vec.V3 {
	return msg.Allreduce(e.C, e.Record().Momentum, func(a, b vec.V3) vec.V3 { return a.Add(b) }, 24)
}

func TestMomentumConservationParallel(t *testing.T) {
	const n = 300
	global := globalCloud(n, 5)
	var p0, p1 vec.V3
	msg.Run(2, func(c *msg.Comm) {
		e := New(c, scatter(global, c), cfg())
		e.ComputeForces()
		m0 := momentum(e) // collective: every rank participates
		if c.Rank() == 0 {
			p0 = m0
		}
		for s := 0; s < 5; s++ {
			e.Step(1e-3)
		}
		m := momentum(e)
		if c.Rank() == 0 {
			p1 = m
		}
	})
	// Multipole truncation breaks exact force symmetry, so momentum
	// is conserved only to the MAC error level: |dp| <~ sum(m)*aTol*T.
	if p1.Sub(p0).Norm() > 1e-4 {
		t.Fatalf("momentum drift %v", p1.Sub(p0))
	}
}

func TestEmptyRanksTolerated(t *testing.T) {
	// More ranks than distinguishable key regions: some ranks may own
	// empty intervals; nothing should deadlock and forces must match.
	const n = 40
	global := globalCloud(n, 6)
	wantAcc, _ := directRef(global, 1e-6)
	aRMS := rmsNorm(wantAcc)
	var mu sync.Mutex
	seen := 0
	msg.Run(8, func(c *msg.Comm) {
		e := New(c, scatter(global, c), cfg())
		e.ComputeForces()
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < e.Sys.Len(); i++ {
			id := e.Sys.ID[i]
			if rel := e.Sys.Acc[i].Sub(wantAcc[id]).Norm() / aRMS; rel > 1e-3 {
				t.Errorf("body %d: error %g of RMS", id, rel)
			}
			seen++
		}
	})
	if seen != n {
		t.Fatalf("saw %d bodies", seen)
	}
}

func TestWorkWeightsFeedBack(t *testing.T) {
	// After an evaluation every local body must carry positive work,
	// the rank's weights must add up to its count exactly (each group's
	// count divides by its size), and a second evaluation must
	// rebalance using them without error.
	const n = 500
	global := globalCloud(n, 7)
	msg.Run(4, func(c *msg.Comm) {
		e := New(c, scatter(global, c), cfg())
		ctr := e.ComputeForces()
		var work uint64
		for i := 0; i < e.Sys.Len(); i++ {
			if e.Sys.Work[i] == 0 {
				t.Errorf("rank %d body %d: no work", c.Rank(), i)
			}
			work += e.Sys.Work[i]
		}
		if work != ctr.Interactions() {
			t.Errorf("rank %d: work weights sum to %d, the evaluation counted %d", c.Rank(), work, ctr.Interactions())
		}
		ctr = e.ComputeForces()
		if e.Sys.Len() > 0 && ctr.Interactions() == 0 {
			t.Errorf("second evaluation produced no work")
		}
	})
}

func BenchmarkParallelStep4Ranks(b *testing.B) {
	global := globalCloud(20000, 9)
	b.ResetTimer()
	msg.Run(4, func(c *msg.Comm) {
		e := New(c, scatter(global, c), Config{
			MAC:  grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.7, Quad: true},
			Eps2: 1e-6,
		})
		for i := 0; i < b.N; i++ {
			e.ComputeForces()
		}
	})
}

// TestBalanceReport reads how evenly the work spread across ranks off
// their records, the one description of a rank every report takes
// (diag.BalanceOf over each rank's Record): the work-weighted
// decomposition balances interactions decently even on a clustered
// problem.
func TestBalanceReport(t *testing.T) {
	const n, np = 1000, 4
	global := globalCloud(n, 11)
	recs := make([]metrics.RankInput, np)
	msg.Run(np, func(c *msg.Comm) {
		e := New(c, scatter(global, c), cfg())
		e.ComputeForces()
		// A second evaluation rebalances on measured work.
		e.ComputeForces()
		recs[c.Rank()] = e.Record()
	})
	var work, bodies []float64
	for _, r := range recs {
		work = append(work, float64(r.Counters.Interactions()))
		bodies = append(bodies, float64(r.Bodies))
	}
	w, b := diag.BalanceOf(work), diag.BalanceOf(bodies)
	if w.Max == 0 || b.Max == 0 {
		t.Fatalf("empty balance: work %+v, bodies %+v", w, b)
	}
	if w.Efficiency < 0.6 {
		t.Fatalf("work balance efficiency %.2f: %+v", w.Efficiency, w)
	}
}

// Regression for the PR 4 incident at full pipeline scale: a rank
// dying inside the walk phase of an 8-way force computation must end
// in a structured WorldError promptly (abort path), with the stall
// watchdog armed as a backstop -- never a hang. The injector makes
// the historical failure reproducible on demand.
func TestChaosCrashDuringWalkAborts(t *testing.T) {
	global := globalCloud(800, 4)
	done := make(chan *msg.WorldError, 1)
	go func() {
		w := msg.NewWorld(8)
		inj := &msg.Injector{Seed: 9, CrashProb: 1, CrashPhase: "walk"}
		w.SetInjector(inj)
		w.StartWatchdog(msg.WatchdogConfig{Quiet: 5 * time.Second, Out: io.Discard})
		done <- w.RunErr(func(c *msg.Comm) {
			e := New(c, scatter(global, c), cfg())
			e.ComputeForces()
		})
	}()
	var err *msg.WorldError
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("crashed world hung instead of aborting")
	}
	if err == nil {
		t.Fatal("expected a WorldError from the injected crash")
	}
	var crash *msg.InjectedCrash
	if !errors.As(err, &crash) {
		t.Fatalf("cause = %v, want *InjectedCrash", err.Cause)
	}
	if crash.Phase != "walk" {
		t.Fatalf("crash phase = %q, want walk", crash.Phase)
	}
	if err.Rank != crash.Rank {
		t.Fatalf("WorldError rank %d != crash rank %d", err.Rank, crash.Rank)
	}
}

// TestVisitorBoundIsSound holds the engine's MAC bound to the push's
// contract on a Salmon-Warren gravity tree: tree.ClassifyBound over a
// rank's bound opens whatever tree.Classify opens for one of its groups.
func TestVisitorBoundIsSound(t *testing.T) {
	msg.Run(1, func(c *msg.Comm) {
		e := New(c, globalCloud(3000, 11), Config{
			MAC: grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true}, Eps2: 1e-6,
		})
		e.Exchange()
		visitortest.MAC(t, e.Local, 1)
	})
}
