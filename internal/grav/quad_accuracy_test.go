// External-package test (grav_test): internal/direct imports grav, so
// comparing the multipole kernels against direct summation has to live
// outside package grav.
package grav_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/direct"
	"repro/internal/grav"
	"repro/internal/vec"
)

// mirrorClump returns a source clump of 2n bodies symmetric under
// point reflection through ctr (each body paired with its mirror image
// at equal mass), spread over a cube of half-width s. The symmetry
// kills every odd multipole moment, so with quadrupole terms included
// the first surviving truncation error is the hexadecapole: the
// relative force error falls as O((s/d)^4) with distance d.
func mirrorClump(rng *rand.Rand, n int, ctr vec.V3, s float64) ([]vec.V3, []float64) {
	pos := make([]vec.V3, 0, 2*n)
	mass := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		d := vec.V3{
			X: s * (2*rng.Float64() - 1),
			Y: s * (2*rng.Float64() - 1),
			Z: s * (2*rng.Float64() - 1),
		}
		m := rng.Float64() + 0.5
		pos = append(pos, ctr.Add(d), ctr.Sub(d))
		mass = append(mass, m, m)
	}
	return pos, mass
}

// m2pFunc is EvalM2P's signature: the dispatching kernel and the Go
// loop both have it.
type m2pFunc func(*grav.Targets, *grav.InteractionList, bool, float64) uint64

// quadErrAt returns the maximum relative acceleration error of the
// quadrupole M2P approximation for targets at distance d from the
// clump, exact forces computed by direct summation over a combined
// system with massless targets (so targets feel the clump and perturb
// nothing).
func quadErrAt(t *testing.T, evalM2P m2pFunc, spos []vec.V3, smass []float64, d float64) float64 {
	t.Helper()
	mp := grav.FromBodies(spos, smass)
	// A few targets on different rays at the same distance.
	dirs := []vec.V3{
		{X: 1}, {Y: 1}, {Z: -1},
		{X: 0.577350269189626, Y: 0.577350269189626, Z: 0.577350269189626},
	}
	tpos := make([]vec.V3, len(dirs))
	for i, u := range dirs {
		tpos[i] = mp.COM.Add(u.Scale(d))
	}

	// Exact: direct summation over clump + massless targets.
	all := append(append([]vec.V3(nil), spos...), tpos...)
	allMass := append(append([]float64(nil), smass...), make([]float64, len(tpos))...)
	accAll := make([]vec.V3, len(all))
	potAll := make([]float64, len(all))
	direct.Serial(all, allMass, accAll, potAll, 0)
	exact := accAll[len(spos):]

	// Approximate: one multipole through the quadrupole kernel.
	var tg grav.Targets
	tg.Load(tpos, nil)
	var l grav.InteractionList
	l.AddCells([]*grav.Multipole{&mp})
	evalM2P(&tg, &l, true, 0)
	acc := make([]vec.V3, len(tpos))
	pot := make([]float64, len(tpos))
	tg.Store(acc, pot)

	var worst float64
	for i := range acc {
		e := acc[i].Sub(exact[i]).Norm() / exact[i].Norm()
		if e > worst {
			worst = e
		}
	}
	return worst
}

// TestEvalM2PQuadErrorFalloff pins the quadrupole kernel's accuracy
// against direct summation: for a reflection-symmetric clump the
// relative error must fall by ~16x per distance doubling (the
// O((s/d)^4) hexadecapole truncation); we require at least 6x per
// doubling so roundoff and the clump's particular moments have slack,
// and that the error is small in absolute terms once well separated.
func TestEvalM2PQuadErrorFalloff(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	spos, smass := mirrorClump(rng, 40, vec.V3{X: 0.3, Y: -0.2, Z: 0.1}, 1.0)

	for im, evalM2P := range map[string]m2pFunc{"EvalM2P": grav.EvalM2P, "EvalM2PGo": grav.EvalM2PGo} {
		dists := []float64{4, 8, 16, 32}
		errs := make([]float64, len(dists))
		for i, d := range dists {
			errs[i] = quadErrAt(t, evalM2P, spos, smass, d)
		}
		for i := 1; i < len(errs); i++ {
			if errs[i] <= 0 {
				// Below roundoff already; nothing further to pin.
				continue
			}
			ratio := errs[i-1] / errs[i]
			if ratio < 6 {
				t.Errorf("%v: error %g at d=%g -> %g at d=%g, falloff %.1fx < 6x per doubling",
					im, errs[i-1], dists[i-1], errs[i], dists[i], ratio)
			}
		}
		if last := errs[len(errs)-1]; last > 1e-5 {
			t.Errorf("%v: relative error %g at d=%g; quadrupole term looks wrong",
				im, last, dists[len(dists)-1])
		}
		if math.IsNaN(errs[0]) {
			t.Errorf("%v: NaN error at d=%g", im, dists[0])
		}
	}
}
