package vortex

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/vec"
)

func ring(nTheta, nCore int, gamma, R, rc float64, center vec.V3, seed int64) *core.System {
	s := core.New(0)
	s.EnableDynamics()
	s.EnableVortex()
	ic.VortexRing(s, gamma, R, rc, center, vec.V3{Z: 1}, nTheta, nCore, seed)
	return s
}

func TestPairwiseAntisymmetryOfVelocity(t *testing.T) {
	// Two particles: the velocity each induces on the other follows
	// the Biot-Savart sign convention; u_p from q is -(1/4pi) g r x a_q.
	pos := []vec.V3{{X: 0}, {X: 1}}
	alpha := []vec.V3{{Z: 0}, {Z: 1}} // only q=1 carries strength
	vel := make([]vec.V3, 2)
	da := make([]vec.V3, 2)
	n := Pairwise(pos, alpha, 0.1, vel, da)
	if n != 2 {
		t.Fatalf("count %d", n)
	}
	// r = x_0 - x_1 = (-1,0,0); r x alpha_1 = (-1,0,0)x(0,0,1) = (0,1,0)*... = (0*1-0*0, 0*(-0)-(-1)*1, 0) = (0,1,0)
	// u_0 = -(1/4pi) g (0,1,0): negative y? compute: cross((-1,0,0),(0,0,1)) = (0*1-0*0, 0*0-(-1)*1, (-1)*0-0*0) = (0,1,0).
	if vel[0].Y >= 0 {
		t.Fatalf("u_0 = %v, expected -y direction", vel[0])
	}
	if vel[1].Norm() != 0 {
		t.Fatalf("u_1 = %v, particle 0 has no strength", vel[1])
	}
}

func TestRingTranslatesAlongAxis(t *testing.T) {
	// A single thin vortex ring self-propels along its axis with
	// speed U ~ Gamma/(4 pi R) [ln(8R/rc) - const]: check direction
	// and order of magnitude.
	s := ring(64, 4, 1.0, 1.0, 0.1, vec.V3{}, 1)
	vel := make([]vec.V3, s.Len())
	da := make([]vec.V3, s.Len())
	Pairwise(s.Pos, s.Alpha, 0.1, vel, da)
	var mean vec.V3
	for i := range vel {
		mean = mean.Add(vel[i])
	}
	mean = mean.Scale(1 / float64(len(vel)))
	uAnalytic := 1.0 / (4 * math.Pi) * (math.Log(8.0/0.1) - 0.558)
	if mean.Z <= 0 {
		t.Fatalf("ring moves %v, want +z", mean)
	}
	if mean.Z < 0.3*uAnalytic || mean.Z > 3*uAnalytic {
		t.Fatalf("ring speed %v, analytic %v", mean.Z, uAnalytic)
	}
	// Transverse drift ~ 0 by symmetry.
	if math.Abs(mean.X) > 0.05*mean.Z || math.Abs(mean.Y) > 0.05*mean.Z {
		t.Fatalf("transverse drift: %v", mean)
	}
}

func TestTreeEvalMatchesPairwise(t *testing.T) {
	s := ring(48, 3, 1.0, 1.0, 0.15, vec.V3{}, 2)
	ic.VortexRing(s, 1.0, 1.0, 0.15, vec.V3{X: 2.5}, vec.V3{Z: 1}, 48, 3, 3)
	n := s.Len()

	// Tree evaluation (sorts the system).
	dTree, ctr := TreeEval(s, 0.15, 0.4)
	if ctr.VortexPP == 0 {
		t.Fatal("no vortex interactions")
	}
	// Pairwise on the same (sorted) state.
	velRef := make([]vec.V3, n)
	daRef := make([]vec.V3, n)
	Pairwise(s.Pos, s.Alpha, 0.15, velRef, daRef)

	var vRMS float64
	for i := 0; i < n; i++ {
		vRMS += velRef[i].Norm2()
	}
	vRMS = math.Sqrt(vRMS / float64(n))
	for i := 0; i < n; i++ {
		if d := s.Vel[i].Sub(velRef[i]).Norm() / vRMS; d > 0.02 {
			t.Fatalf("particle %d velocity error %g of RMS", i, d)
		}
	}
	var daRMS float64
	for i := 0; i < n; i++ {
		daRMS += daRef[i].Norm2()
	}
	daRMS = math.Sqrt(daRMS/float64(n)) + 1e-30
	for i := 0; i < n; i++ {
		if d := dTree[i].Sub(daRef[i]).Norm() / daRMS; d > 0.05 {
			t.Fatalf("particle %d stretching error %g of RMS", i, d)
		}
	}
	// Tree should do fewer interactions than N^2 on two separated
	// rings.
	if ctr.VortexPP >= uint64(n)*uint64(n-1) {
		t.Fatalf("tree did %d interactions, pairwise is %d", ctr.VortexPP, n*(n-1))
	}
}

func TestM4PrimeProperties(t *testing.T) {
	if M4Prime(0) != 1 {
		t.Fatalf("W(0) = %v", M4Prime(0))
	}
	if M4Prime(1) != 0 || M4Prime(2) != 0 || M4Prime(3) != 0 {
		t.Fatal("W must vanish at integers >= 1")
	}
	// Partition of unity: sum over integer shifts is 1 for any x.
	for _, x := range []float64{0.0, 0.1, 0.25, 0.5, 0.77, 0.99} {
		sum := 0.0
		for i := -3; i <= 3; i++ {
			sum += M4Prime(x - float64(i))
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("partition of unity violated at %v: %v", x, sum)
		}
	}
	// First moment: sum i*W(x-i) = x (linear reproduction).
	for _, x := range []float64{0.2, 0.6, 0.9} {
		sum := 0.0
		for i := -3; i <= 3; i++ {
			sum += float64(i) * M4Prime(x-float64(i))
		}
		if math.Abs(sum-x) > 1e-12 {
			t.Fatalf("first moment at %v: %v", x, sum)
		}
	}
}

func TestRemeshConservesStrengthAndImpulse(t *testing.T) {
	s := ring(32, 4, 1.0, 1.0, 0.15, vec.V3{X: 0.3, Y: -0.2, Z: 0.1}, 4)
	a0 := TotalStrength(s.Alpha)
	i0 := LinearImpulse(s.Pos, s.Alpha)
	out, _, _ := remeshAt(t, s, 1, false, 0.07, 0) // no cutoff: exact conservation
	if out.Len() == 0 {
		t.Fatal("remesh produced nothing")
	}
	a1 := TotalStrength(out.Alpha)
	i1 := LinearImpulse(out.Pos, out.Alpha)
	if d := a1.Sub(a0).Norm(); d > 1e-12 {
		t.Fatalf("total strength drift %g", d)
	}
	// M4' conserves first moments: impulse preserved to roundoff.
	if d := i1.Sub(i0).Norm(); d > 1e-10*(i0.Norm()+1) {
		t.Fatalf("impulse drift %g", d)
	}
}

func TestRemeshGrowsThinParticleSet(t *testing.T) {
	// Remeshing a distorted set onto overlap-preserving spacing adds
	// particles (the paper's 57k -> 360k growth over the run).
	s := ring(64, 2, 1.0, 1.0, 0.05, vec.V3{}, 5)
	n0 := s.Len()
	out, _, _ := remeshAt(t, s, 1, false, 0.03, 1e-4)
	if out.Len() <= n0 {
		t.Fatalf("remesh %d -> %d, expected growth", n0, out.Len())
	}
}

func TestStepAdvancesRing(t *testing.T) {
	s := ring(32, 3, 1.0, 1.0, 0.15, vec.V3{}, 6)
	z0 := Centroid(s.Pos, s.Alpha).Z
	i0 := LinearImpulse(s.Pos, s.Alpha)
	msg.Run(1, func(c *msg.Comm) {
		e := NewParallel(c, s, 0.15, 0.4)
		for k := 0; k < 5; k++ {
			e.Step(0.05)
		}
		s = e.Sys
	})
	z1 := Centroid(s.Pos, s.Alpha).Z
	if z1 <= z0 {
		t.Fatalf("ring did not advance: %v -> %v", z0, z1)
	}
	// Impulse approximately conserved by the dynamics.
	i1 := LinearImpulse(s.Pos, s.Alpha)
	if d := i1.Sub(i0).Norm() / i0.Norm(); d > 0.05 {
		t.Fatalf("impulse drift %v", d)
	}
}

func TestDiagnostics(t *testing.T) {
	pos := []vec.V3{{X: 1}, {X: -1}}
	alpha := []vec.V3{{Y: 2}, {Y: 2}}
	if s := TotalStrength(alpha); s != (vec.V3{Y: 4}) {
		t.Fatalf("TotalStrength %v", s)
	}
	// I = 0.5 * sum x cross a = 0.5*[(1,0,0)x(0,2,0) + (-1,0,0)x(0,2,0)] = 0.
	if i := LinearImpulse(pos, alpha); i.Norm() > 1e-15 {
		t.Fatalf("LinearImpulse %v", i)
	}
	if c := Centroid(pos, alpha); c.Norm() > 1e-15 {
		t.Fatalf("Centroid %v", c)
	}
	if Centroid(nil, nil) != (vec.V3{}) {
		t.Fatal("empty centroid")
	}
	if MaxVelocity([]vec.V3{{X: 1}, {Y: -3}}) != 3 {
		t.Fatal("MaxVelocity")
	}
}

func TestEnergyAndEnstrophyDiagnostics(t *testing.T) {
	s := ring(32, 3, 1.0, 1.0, 0.15, vec.V3{}, 7)
	vel := make([]vec.V3, s.Len())
	da := make([]vec.V3, s.Len())
	Pairwise(s.Pos, s.Alpha, 0.15, vel, da)
	e := KineticEnergy(s.Pos, s.Alpha, vel)
	if e <= 0 {
		t.Fatalf("ring kinetic energy %v, want positive", e)
	}
	if Enstrophy(s.Alpha) <= 0 {
		t.Fatal("enstrophy must be positive")
	}
	// Enstrophy grows under stretching in a fusing-ring flow; here we
	// just verify the diagnostic is stable under remesh (conserved
	// approximately, since M4' smooths).
	before := Enstrophy(s.Alpha)
	out, _, _ := remeshAt(t, s, 1, false, 0.07, 0)
	after := Enstrophy(out.Alpha)
	if after <= 0 || after > 2*before {
		t.Fatalf("enstrophy through remesh: %v -> %v", before, after)
	}
}
