package sph

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hotengine/visitortest"
	"repro/internal/integrate"
	"repro/internal/msg"
	"repro/internal/vec"
)

// lattice builds the uniform-lattice gas the equivalence tests run
// on: side^3 particles on a regular grid with a converging velocity
// field (so the artificial-viscosity branch is exercised) and a
// smoothing length of ~1.1 grid spacings.
func gasLattice(side int) *core.System {
	n := side * side * side
	sys := core.New(n)
	sys.EnableDynamics()
	sys.EnableSPH()
	spacing := 1.0 / float64(side)
	i := 0
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			for z := 0; z < side; z++ {
				sys.Pos[i] = vec.V3{
					X: (float64(x) + 0.5) * spacing,
					Y: (float64(y) + 0.5) * spacing,
					Z: (float64(z) + 0.5) * spacing,
				}
				sys.Mass[i] = 1.0 / float64(n)
				// Converging flow toward the center.
				sys.Vel[i] = vec.V3{X: 0.5, Y: 0.5, Z: 0.5}.Sub(sys.Pos[i]).Scale(0.3)
				sys.H[i] = 1.1 * spacing
				i++
			}
		}
	}
	return sys
}

func scatterSPH(global *core.System, c *msg.Comm) *core.System {
	n := global.Len()
	lo, hi := c.Rank()*n/c.Size(), (c.Rank()+1)*n/c.Size()
	local := core.New(0)
	local.EnableDynamics()
	local.EnableSPH()
	for i := lo; i < hi; i++ {
		local.AppendFrom(global, i)
	}
	return local
}

// TestParallelMatchesSerial asserts the distributed density and
// pressure forces match the serial Step on 1, 2 and 8 ranks: same
// pair counts exactly, densities and accelerations to roundoff (the
// candidate-gathering order can differ from the per-particle query
// order where the distributed tree force-splits a leaf, so sums may
// reassociate, but the neighbor sets are identical).
func TestParallelMatchesSerial(t *testing.T) {
	p := Params{EOS: Isothermal, CS: 1.0, AlphaVisc: 1, BetaVisc: 2}

	serial := gasLattice(8)
	_, sctr := Step(serial, &p, 16)
	refRho := make(map[int64]float64, serial.Len())
	refAcc := make(map[int64]vec.V3, serial.Len())
	accScale := 0.0
	for i := 0; i < serial.Len(); i++ {
		refRho[serial.ID[i]] = serial.Rho[i]
		refAcc[serial.ID[i]] = serial.Acc[i]
		if a := serial.Acc[i].Norm(); a > accScale {
			accScale = a
		}
	}

	for _, np := range []int{1, 2, 8} {
		var mu sync.Mutex
		var pairs uint64
		var maxRhoErr, maxAccErr float64
		remote := 0
		msg.Run(np, func(c *msg.Comm) {
			e := NewParallel(c, scatterSPH(gasLattice(8), c), ParallelConfig{Params: p})
			e.Eval()
			mu.Lock()
			defer mu.Unlock()
			pairs += e.Counters.SPHPairs
			remote += e.RemoteCells
			for i := 0; i < e.Sys.Len(); i++ {
				id := e.Sys.ID[i]
				if d := math.Abs(e.Sys.Rho[i]-refRho[id]) / refRho[id]; d > maxRhoErr {
					maxRhoErr = d
				}
				if d := e.Sys.Acc[i].Sub(refAcc[id]).Norm() / accScale; d > maxAccErr {
					maxAccErr = d
				}
			}
		})
		if pairs != sctr.SPHPairs {
			t.Errorf("np=%d: SPH pairs = %d, serial = %d (neighbor sets differ)", np, pairs, sctr.SPHPairs)
		}
		if maxRhoErr > 1e-12 {
			t.Errorf("np=%d: max relative density error %g", np, maxRhoErr)
		}
		if maxAccErr > 1e-11 {
			t.Errorf("np=%d: max relative acceleration error %g", np, maxAccErr)
		}
		if np > 1 && remote == 0 {
			t.Errorf("np=%d: no remote cells imported; halo exchange untested", np)
		}
	}
}

// TestParallelWithGravityMatchesSerial adds the self-gravity pass and
// compares against the serial mirror (sph.Step pressure plus
// tree.Gravity on the shared tree). One rank must agree to roundoff;
// on more ranks the force-split tree legitimately changes which cells
// the gravity MAC accepts, so the comparison loosens to the MAC error
// scale while densities stay exact.
func TestParallelWithGravityMatchesSerial(t *testing.T) {
	const eps2 = 1e-4
	p := Params{EOS: Isothermal, CS: 1.0, AlphaVisc: 1, BetaVisc: 2}

	serial := gasLattice(8)
	tr, _ := Step(serial, &p, 16)
	pressure := append(serial.Acc[:0:0], serial.Acc...)
	tr.Gravity(eps2)
	for i := range serial.Acc {
		serial.Acc[i] = serial.Acc[i].Add(pressure[i])
	}
	refAcc := make(map[int64]vec.V3, serial.Len())
	accScale := 0.0
	for i := 0; i < serial.Len(); i++ {
		refAcc[serial.ID[i]] = serial.Acc[i]
		if a := serial.Acc[i].Norm(); a > accScale {
			accScale = a
		}
	}

	for _, np := range []int{1, 2, 8} {
		tol := 1e-11
		if np > 1 {
			tol = 2e-2
		}
		var mu sync.Mutex
		maxAccErr := 0.0
		msg.Run(np, func(c *msg.Comm) {
			e := NewParallel(c, scatterSPH(gasLattice(8), c), ParallelConfig{
				Params: p, Gravity: true, Eps2: eps2,
			})
			e.Eval()
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < e.Sys.Len(); i++ {
				if d := e.Sys.Acc[i].Sub(refAcc[e.Sys.ID[i]]).Norm() / accScale; d > maxAccErr {
					maxAccErr = d
				}
			}
		})
		if maxAccErr > tol {
			t.Errorf("np=%d: max relative acceleration error %g > %g", np, maxAccErr, tol)
		}
	}
}

// TestParallelStepMatchesLeapfrog integrates the pressure-only gas
// for a few KDK steps on 2 ranks and compares trajectories against
// the serial leapfrog driving sph.Step, by particle ID.
func TestParallelStepMatchesLeapfrog(t *testing.T) {
	const dt, steps = 1e-3, 3
	p := Params{EOS: Isothermal, CS: 1.0, AlphaVisc: 1, BetaVisc: 2}

	serial := gasLattice(6)
	forces := func(s *core.System) {
		Step(s, &p, 16)
	}
	forces(serial)
	integrate.Leapfrog(serial, forces, dt, steps)
	refPos := make(map[int64]vec.V3, serial.Len())
	for i := 0; i < serial.Len(); i++ {
		refPos[serial.ID[i]] = serial.Pos[i]
	}

	var mu sync.Mutex
	maxErr := 0.0
	total := 0
	msg.Run(2, func(c *msg.Comm) {
		e := NewParallel(c, scatterSPH(gasLattice(6), c), ParallelConfig{Params: p})
		e.Eval()
		for s := 0; s < steps; s++ {
			e.Step(dt)
		}
		mu.Lock()
		defer mu.Unlock()
		total += e.Sys.Len()
		for i := 0; i < e.Sys.Len(); i++ {
			if d := e.Sys.Pos[i].Sub(refPos[e.Sys.ID[i]]).Norm(); d > maxErr {
				maxErr = d
			}
		}
	})
	if total != serial.Len() {
		t.Fatalf("particles lost: %d of %d", total, serial.Len())
	}
	if maxErr > 1e-9 {
		t.Errorf("max position divergence after %d steps: %g", steps, maxErr)
	}
}

// TestVisitorBoundIsSound holds the neighbor gatherer, whose sphere
// includes the kernel support, to the push's contract on a real tree:
// TestBound over a bound opens whatever it opens over one group's
// sphere. (The gravity pass is the engine's MAC walk, held to it in
// internal/parallel and internal/vortex.)
func TestVisitorBoundIsSound(t *testing.T) {
	msg.Run(1, func(c *msg.Comm) {
		e := NewParallel(c, gasLattice(12), ParallelConfig{Gravity: true, Eps2: 1e-4})
		e.Exchange()
		visitortest.Sound(t, &gatherer{e: e}, e.Local, 1)
	})
}

// TestStepUnderLatencyMatchesWithout runs the three SPH passes of
// every evaluation -- density, forces and gravity, each pushed after
// an allgather of its own bounds and ended without a vote -- on four
// ranks with one message in four held up to 20 ms. An owner snapshots
// the columns it pushes only once every peer has imported its last
// phase's batches, so densities and accelerations after each step
// equal those of the same run with no latency, bit for bit, and under
// -race the run reports no race.
func TestStepUnderLatencyMatchesWithout(t *testing.T) {
	const np, steps, dt = 4, 4, 1e-3
	p := Params{EOS: Isothermal, CS: 1.0, AlphaVisc: 1, BetaVisc: 2}
	run := func(inj *msg.Injector) [steps]map[int64][4]float64 {
		var got [steps]map[int64][4]float64
		for s := range got {
			got[s] = map[int64][4]float64{}
		}
		var mu sync.Mutex
		w := msg.NewWorld(np)
		if inj != nil {
			w.SetInjector(inj)
		}
		w.Run(func(c *msg.Comm) {
			e := NewParallel(c, scatterSPH(gasLattice(8), c), ParallelConfig{Params: p, Gravity: true, Eps2: 1e-4})
			e.Eval()
			for s := 0; s < steps; s++ {
				e.Step(dt)
				mu.Lock()
				for i, id := range e.Sys.ID {
					a := e.Sys.Acc[i]
					got[s][id] = [4]float64{e.Sys.Rho[i], a.X, a.Y, a.Z}
				}
				mu.Unlock()
			}
		})
		return got
	}
	want := run(nil)
	inj := &msg.Injector{Seed: 5, LatencyProb: 0.25, MaxLatency: 20 * time.Millisecond}
	got := run(inj)
	if inj.Stats().Delays == 0 {
		t.Fatal("the injector delayed no message")
	}
	for s := range want {
		if len(got[s]) != 512 || len(want[s]) != 512 {
			t.Fatalf("step %d: %d and %d particles, want 512", s, len(got[s]), len(want[s]))
		}
		for id, v := range want[s] {
			if got[s][id] != v {
				t.Fatalf("step %d: particle %d rho, acc %v under latency, %v without", s, id, got[s][id], v)
			}
		}
	}
}
