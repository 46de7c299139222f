package grav

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

func randomBodies(n int, seed int64, center vec.V3, scale float64) ([]vec.V3, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = center.Add(vec.V3{
			X: (rng.Float64() - 0.5) * scale,
			Y: (rng.Float64() - 0.5) * scale,
			Z: (rng.Float64() - 0.5) * scale,
		})
		mass[i] = rng.Float64() + 0.5
	}
	return pos, mass
}

func TestMomentsFromBodies(t *testing.T) {
	pos := []vec.V3{{X: 1}, {X: -1}}
	mass := []float64{1, 1}
	mp := FromBodies(pos, mass)
	if mp.M != 2 {
		t.Fatalf("M = %v", mp.M)
	}
	if mp.COM.Norm() > 1e-15 {
		t.Fatalf("COM = %v", mp.COM)
	}
	// Q for dumbbell along x: sum m(3x^2 - r^2) = 2*(3-1) = 4 on XX,
	// -2 on YY and ZZ.
	if math.Abs(mp.Q.XX-4) > 1e-14 || math.Abs(mp.Q.YY+2) > 1e-14 || math.Abs(mp.Q.ZZ+2) > 1e-14 {
		t.Fatalf("Q = %+v", mp.Q)
	}
	if math.Abs(mp.Q.Trace()) > 1e-14 {
		t.Fatalf("Q not traceless: %v", mp.Q.Trace())
	}
	if mp.B2 != 2 || mp.Bmax != 1 {
		t.Fatalf("B2 = %v, Bmax = %v", mp.B2, mp.Bmax)
	}
}

// One body's moments are exactly a monopole at its position, at any
// mass and position: no rounding-residue quadrupole or spread, which
// would reach the float32 quadrupole kernel as subnormal products.
func TestOneBodyMomentsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for range 1000 {
		p := vec.V3{X: rng.NormFloat64() * 10, Y: rng.NormFloat64(), Z: rng.NormFloat64() * 1e-3}
		m := rng.Float64() * 1e-4
		if mp := FromBodies([]vec.V3{p}, []float64{m}); mp != (Multipole{M: m, COM: p}) {
			t.Fatalf("body %v mass %g: moments %+v", p, m, mp)
		}
	}
}

func TestCombineMatchesDirect(t *testing.T) {
	posA, massA := randomBodies(30, 4, vec.V3{X: -1}, 0.5)
	posB, massB := randomBodies(20, 5, vec.V3{X: 1}, 0.5)
	mpA := FromBodies(posA, massA)
	mpB := FromBodies(posB, massB)
	combined := Combine([]Multipole{mpA, mpB})

	all := append(append([]vec.V3{}, posA...), posB...)
	allM := append(append([]float64{}, massA...), massB...)
	direct := FromBodies(all, allM)

	if math.Abs(combined.M-direct.M) > 1e-12 {
		t.Fatalf("mass: %v vs %v", combined.M, direct.M)
	}
	if combined.COM.Sub(direct.COM).Norm() > 1e-12 {
		t.Fatalf("com: %v vs %v", combined.COM, direct.COM)
	}
	dq := combined.Q.Add(direct.Q.Scale(-1))
	if dq.MaxAbs() > 1e-10 {
		t.Fatalf("quad differs by %v", dq.MaxAbs())
	}
	if math.Abs(combined.B2-direct.B2) > 1e-10 {
		t.Fatalf("B2: %v vs %v", combined.B2, direct.B2)
	}
	// Combined Bmax is an upper bound on the true Bmax.
	if combined.Bmax < direct.Bmax-1e-12 {
		t.Fatalf("Bmax bound violated: %v < %v", combined.Bmax, direct.Bmax)
	}
}

// The multipole field must converge to the direct sum as distance
// grows, and quadrupole must beat monopole.
func TestM2PConvergence(t *testing.T) {
	pos, mass := randomBodies(100, 6, vec.V3{}, 1)
	mp := FromBodies(pos, mass)
	prevMonoErr := math.Inf(1)
	for _, dist := range []float64{3.0, 6.0, 12.0} {
		target := []vec.V3{{X: dist, Y: 0.3, Z: -0.2}}
		exact, exactPot := AccelAt(target[0], pos, mass, 0)

		accM := make([]vec.V3, 1)
		potM := make([]float64, 1)
		M2P(target, accM, potM, &mp, false, 0)
		monoErr := accM[0].Sub(exact).Norm() / exact.Norm()

		accQ := make([]vec.V3, 1)
		potQ := make([]float64, 1)
		M2P(target, accQ, potQ, &mp, true, 0)
		quadErr := accQ[0].Sub(exact).Norm() / exact.Norm()

		if quadErr > monoErr {
			t.Errorf("dist %v: quad error %g worse than mono %g", dist, quadErr, monoErr)
		}
		if monoErr >= prevMonoErr {
			t.Errorf("dist %v: mono error not decreasing (%g -> %g)", dist, prevMonoErr, monoErr)
		}
		prevMonoErr = monoErr
		if math.Abs(potQ[0]-exactPot)/math.Abs(exactPot) > math.Abs(potM[0]-exactPot)/math.Abs(exactPot)+1e-12 {
			t.Errorf("dist %v: quad potential worse than mono", dist)
		}
	}
	// At 12 cell radii the quadrupole field should be very accurate.
	target := []vec.V3{{X: 12}}
	exact, _ := AccelAt(target[0], pos, mass, 0)
	acc := make([]vec.V3, 1)
	pot := make([]float64, 1)
	M2P(target, acc, pot, &mp, true, 0)
	if rel := acc[0].Sub(exact).Norm() / exact.Norm(); rel > 1e-5 {
		t.Errorf("far-field quad error %g", rel)
	}
}

// The Salmon-Warren bound must actually bound the error: at the
// critical radius the observed acceleration error must not exceed
// AccelTol.
func TestSWBoundIsABound(t *testing.T) {
	pos, mass := randomBodies(200, 7, vec.V3{}, 2)
	mp := FromBodies(pos, mass)
	for _, quad := range []bool{false, true} {
		p := MACParams{Kind: MACSalmonWarren, AccelTol: 1e-5, Quad: quad}
		rc := RCrit(&mp, 2, 0, p)
		if rc <= mp.Bmax {
			t.Fatalf("rcrit %v inside cell", rc)
		}
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 50; trial++ {
			dir := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
			dir = dir.Scale(1 / dir.Norm())
			x := mp.COM.Add(dir.Scale(rc * (1 + rng.Float64())))
			exact, _ := AccelAt(x, pos, mass, 0)
			acc := make([]vec.V3, 1)
			pot := make([]float64, 1)
			M2P([]vec.V3{x}, acc, pot, &mp, quad, 0)
			if err := acc[0].Sub(exact).Norm(); err > p.AccelTol {
				t.Fatalf("quad=%v: error %g exceeds bound %g at r=%v (rcrit %v)",
					quad, err, p.AccelTol, x.Sub(mp.COM).Norm(), rc)
			}
		}
	}
}

func TestRCritBH(t *testing.T) {
	mp := Multipole{M: 1, Bmax: 0.5, B2: 0.25}
	p := MACParams{Kind: MACBarnesHut, Theta: 0.5}
	if rc := RCrit(&mp, 1, 0.1, p); math.Abs(rc-2.1) > 1e-14 {
		t.Fatalf("BH rcrit = %v", rc)
	}
	// Smaller theta means larger rcrit (more accurate).
	loose := RCrit(&mp, 1, 0, MACParams{Kind: MACBarnesHut, Theta: 1.0})
	tight := RCrit(&mp, 1, 0, MACParams{Kind: MACBarnesHut, Theta: 0.3})
	if tight <= loose {
		t.Fatal("theta ordering violated")
	}
}

func TestRCritSWPointMass(t *testing.T) {
	mp := Multipole{M: 5} // B2 = 0: expansion exact
	p := MACParams{Kind: MACSalmonWarren, AccelTol: 1e-6, Quad: true}
	if rc := RCrit(&mp, 1, 0, p); rc != 0 {
		t.Fatalf("point mass rcrit = %v", rc)
	}
}

func TestDefaultMAC(t *testing.T) {
	p := DefaultMAC()
	if p.Kind != MACSalmonWarren || !p.Quad || p.AccelTol <= 0 {
		t.Fatalf("unexpected default: %+v", p)
	}
}
