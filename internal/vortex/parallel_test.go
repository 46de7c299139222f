package vortex

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/hotengine/visitortest"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/vec"
)

func twoRings(nTheta, nCore int) *core.System {
	s := core.New(0)
	s.EnableDynamics()
	s.EnableVortex()
	ic.VortexRing(s, 1.0, 1.0, 0.15, vec.V3{X: -0.75}, vec.V3{Z: 1}, nTheta, nCore, 41)
	ic.VortexRing(s, 1.0, 1.0, 0.15, vec.V3{X: 0.75}, vec.V3{Z: 1}, nTheta, nCore, 43)
	return s
}

func scatterV(global *core.System, c *msg.Comm) *core.System {
	n := global.Len()
	local := core.New(0)
	local.EnableDynamics()
	local.EnableVortex()
	lo, hi := c.Rank()*n/c.Size(), (c.Rank()+1)*n/c.Size()
	for i := lo; i < hi; i++ {
		local.AppendFrom(global, i)
	}
	return local
}

func TestParallelVortexMatchesSerial(t *testing.T) {
	global := twoRings(32, 3)
	n := global.Len()
	const sigma, theta = 0.15, 0.4

	// Serial reference (pairwise, exact).
	velRef := make([]vec.V3, n)
	daRef := make([]vec.V3, n)
	Pairwise(global.Pos, global.Alpha, sigma, velRef, daRef)
	var vRMS, daRMS float64
	for i := 0; i < n; i++ {
		vRMS += velRef[i].Norm2()
		daRMS += daRef[i].Norm2()
	}
	vRMS = math.Sqrt(vRMS / float64(n))
	daRMS = math.Sqrt(daRMS/float64(n)) + 1e-30

	for _, np := range []int{1, 2, 4} {
		var mu sync.Mutex
		seen := 0
		totalRemote := 0
		msg.Run(np, func(c *msg.Comm) {
			e := NewParallel(c, scatterV(global, c), sigma, theta)
			dAlpha := e.Eval()
			mu.Lock()
			defer mu.Unlock()
			totalRemote += e.RemoteCells
			for i := 0; i < e.Sys.Len(); i++ {
				id := e.Sys.ID[i]
				if d := e.Sys.Vel[i].Sub(velRef[id]).Norm() / vRMS; d > 0.03 {
					t.Errorf("np=%d particle %d: velocity error %g of RMS", np, id, d)
				}
				if d := dAlpha[i].Sub(daRef[id]).Norm() / daRMS; d > 0.06 {
					t.Errorf("np=%d particle %d: stretching error %g of RMS", np, id, d)
				}
				seen++
			}
		})
		if seen != n {
			t.Fatalf("np=%d: saw %d particles", np, seen)
		}
		if np > 1 && totalRemote == 0 {
			t.Fatalf("np=%d: no remote cells fetched", np)
		}
	}
}

func TestParallelVortexStep(t *testing.T) {
	// The one-rank engine's trajectory is the reference for three ranks.
	zSerial, _ := stepCentroid(twoRings(24, 2), 1)
	zPar, totalN := stepCentroid(twoRings(24, 2), 3)
	if totalN != twoRings(24, 2).Len() {
		t.Fatalf("lost particles: %d of %d", totalN, twoRings(24, 2).Len())
	}
	// Both trajectories advance in +z and agree closely.
	if zPar <= 0 || zSerial <= 0 {
		t.Fatalf("rings did not advance: serial %v parallel %v", zSerial, zPar)
	}
	if math.Abs(zPar-zSerial) > 0.05*zSerial+1e-3 {
		t.Fatalf("parallel trajectory deviates: %v vs %v", zPar, zSerial)
	}
}

// stepCentroid advances global three steps on np ranks and returns the
// gathered centroid height and particle count.
func stepCentroid(global *core.System, np int) (float64, int) {
	const sigma, theta, dt = 0.15, 0.5, 0.05
	var z float64
	var n int
	msg.Run(np, func(c *msg.Comm) {
		e := NewParallel(c, scatterV(global, c), sigma, theta)
		for s := 0; s < 3; s++ {
			e.Step(dt)
		}
		// Gather all particles for the centroid.
		type pt struct{ P, A vec.V3 }
		mineP := make([]pt, e.Sys.Len())
		for i := range mineP {
			mineP[i] = pt{e.Sys.Pos[i], e.Sys.Alpha[i]}
		}
		all := msg.Allgather(c, mineP, 48*len(mineP))
		if c.Rank() == 0 {
			var pos, alpha []vec.V3
			for _, b := range all {
				for _, p := range b {
					pos = append(pos, p.P)
					alpha = append(alpha, p.A)
				}
			}
			z, n = Centroid(pos, alpha).Z, len(pos)
		}
	})
	return z, n
}

// A vortex step costs its two evaluations' collectives and no more: the
// pre-step state rides the second evaluation's body exchange in the
// Pos0/Alpha0 columns, so a warm step at np = 4 is 2 x 4 collectives a
// rank (splitters, bodies, branches, push) plus one for each evaluation
// whose predicted key domain missed (Relocated). The step columns are
// gone when Step returns.
func TestVortexStepIsTwoEvaluations(t *testing.T) {
	const np, steps, dt = 4, 8, 0.02
	global := twoRings(32, 3)
	relocated := make([]int, np)
	msg.Run(np, func(c *msg.Comm) {
		e := NewParallel(c, scatterV(global, c), 0.12, 0.5)
		e.Step(dt) // cold: the first evaluation searches its splitters in full
		for s := 1; s < steps; s++ {
			colls, rel := c.Collectives(), e.Relocated
			e.Step(dt)
			want := uint64(2*4 + e.Relocated - rel)
			if got := c.Collectives() - colls; got != want {
				t.Errorf("rank %d step %d: %d collectives with %d relocated, want %d", c.Rank(), s, got, e.Relocated-rel, want)
			}
			if e.Sys.Pos0 != nil || e.Sys.Alpha0 != nil {
				t.Errorf("rank %d step %d: the step columns outlive the step", c.Rank(), s)
			}
		}
		relocated[c.Rank()] = e.Relocated
	})
	t.Logf("relocated evaluations by rank: %v", relocated)
}

func TestParallelVortexEmptyRanks(t *testing.T) {
	// More ranks than the tiny ring needs: empty intervals must not
	// deadlock.
	global := twoRings(8, 1)
	msg.Run(6, func(c *msg.Comm) {
		e := NewParallel(c, scatterV(global, c), 0.15, 0.5)
		e.Eval()
	})
}

// TestParallelWalkSteadyStateAllocs pins the walk phase of the vortex
// instantiation, whose per-cell payload is a vec.V3, at the engine's
// steady-state allocation budget: the payload of an accepted local cell
// reaches the visitor by value. (It used to be returned by pointer from
// the cell lookup, one heap allocation per local-cell visit.)
func TestParallelWalkSteadyStateAllocs(t *testing.T) {
	global := twoRings(32, 3)
	msg.Run(1, func(c *msg.Comm) {
		e := NewParallel(c, scatterV(global, c), 0.15, 0.4)
		e.Eval() // settle the tree, the lists and the walk phase's scratch
		eval := e.evalGroup
		if e.Counters.Traversals == 0 {
			t.Fatal("evaluation walked nothing")
		}
		if avg := testing.AllocsPerRun(10, func() {
			e.WalkGroups("walk", &e.walk, eval)
		}); avg > 2 {
			t.Errorf("vortex WalkGroups allocates %.1f/call in steady state, want <= 2", avg)
		}
	})
}

// TestVisitorBoundIsSound holds the engine's MAC bound to the push's
// contract on a Barnes-Hut tree over |alpha|-weighted geometry:
// tree.ClassifyBound over a rank's bound opens whatever tree.Classify
// opens for one of its groups.
func TestVisitorBoundIsSound(t *testing.T) {
	msg.Run(1, func(c *msg.Comm) {
		e := NewParallel(c, twoRings(64, 3), 0.15, 0.4)
		e.Exchange()
		visitortest.MAC(t, e.Local, 1)
	})
}
