package grav

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// accScale returns the magnitude the 1e-13 force comparisons are
// relative to: the largest acceleration in the reference set. A
// per-component relative comparison would amplify benign per-element
// rounding whenever components cancel to near zero, so forces are
// compared at force scale, the guarantee the kernels actually make.
func accScale(acc []vec.V3) float64 {
	s := 0.0
	for _, a := range acc {
		if v := a.Norm(); v > s {
			s = v
		}
	}
	return s
}

// EvalSelf walks each unordered pair once and never forms the self
// slot. This test pins what a sentinel-based self sweep once got
// wrong: bodies exactly coincident with another body (r2 = eps2, the
// smallest value the kernel can see) must come out equal to the Karp
// PPSelf, at group sizes around the four-lane block and around 64 and
// 128 (the tile edges of the kernel generation the test was written
// for, kept because they cost nothing).
func TestEvalSelfCoincidentBodiesAtTileEdges(t *testing.T) {
	const edge = 64
	eps2 := 1e-4
	for _, n := range []int{1, 2, 3, 4, 5, 7, edge - 1, edge, edge + 1,
		edge + 2, 2*edge - 1, 2 * edge, 2*edge + 2} {
		rng := rand.New(rand.NewSource(int64(n)))
		pos, mass := randBodies(rng, n)
		if n >= 2 {
			pos[1] = pos[0]
		}
		if n > edge {
			pos[edge] = pos[edge-1]
		}

		accRef := make([]vec.V3, n)
		potRef := make([]float64, n)
		nRef := PPSelf(pos, mass, accRef, potRef, eps2)

		var tg Targets
		tg.Load(pos, mass)
		got := EvalSelf(&tg, eps2)
		acc := make([]vec.V3, n)
		pot := make([]float64, n)
		tg.Store(acc, pot)
		if got != nRef {
			t.Fatalf("n=%d: count %d, PPSelf %d", n, got, nRef)
		}
		scale := accScale(accRef)
		for i := range acc {
			if math.IsNaN(acc[i].X) || math.IsInf(acc[i].X, 0) {
				t.Fatalf("n=%d body %d: non-finite acceleration %v", n, i, acc[i])
			}
			if acc[i].Sub(accRef[i]).Norm() > 1e-13*scale ||
				relDiff(pot[i], potRef[i]) > 1e-13 {
				t.Fatalf("n=%d body %d: %v/%g, PPSelf %v/%g",
					n, i, acc[i], pot[i], accRef[i], potRef[i])
			}
		}
	}
}

// The production kernels (hardware sqrt; dispatching and Go-loop
// forms) must agree with the scalar Karp kernels PPTile/PPSelf/M2P to
// roundoff across a full mixed evaluation (multipoles + foreign
// bodies + self) of identical lists, with identical counts, at target
// counts covering every remainder of the four-lane block: 1e-13 of
// the largest acceleration, 1e-13 relative in the potential.
func TestEvalMatchesKarpMixedList(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	eps2 := 1e-6
	for _, nt := range []int{1, 3, 4, 5, 16, 67} {
		tpos, tmass := randBodies(rng, nt)
		spos, smass := randBodies(rng, 150)
		var cells []Multipole
		for c := 0; c < 70; c++ {
			cpos, cmass := randBodies(rng, 8)
			off := vec.V3{X: 5 * float64(c+2), Y: 3, Z: -2}
			for i := range cpos {
				cpos[i] = cpos[i].Add(off)
			}
			cells = append(cells, FromBodies(cpos, cmass))
		}
		var l InteractionList
		l.AddBodies(spos, smass)
		for c := range cells {
			l.AddCell(&cells[c])
		}

		for _, quad := range []bool{false, true} {
			accK := make([]vec.V3, nt)
			potK := make([]float64, nt)
			var nK uint64
			for c := range cells {
				nK += M2P(tpos, accK, potK, &cells[c], quad, eps2)
			}
			nK += PPTile(tpos, accK, potK, spos, smass, eps2)
			nK += PPSelf(tpos, tmass, accK, potK, eps2)
			scale := accScale(accK)

			for name, eval := range map[string]func(*Targets) uint64{
				"dispatch": func(tg *Targets) uint64 {
					return EvalM2P(tg, &l, quad, eps2) + EvalPP(tg, &l, eps2) + EvalSelf(tg, eps2)
				},
				"go": func(tg *Targets) uint64 {
					return EvalM2PGo(tg, &l, quad, eps2) + EvalPPGo(tg, &l, eps2) + EvalSelf(tg, eps2)
				},
			} {
				var tg Targets
				tg.Load(tpos, tmass)
				n := eval(&tg)
				acc := make([]vec.V3, nt)
				pot := make([]float64, nt)
				tg.Store(acc, pot)
				if n != nK {
					t.Fatalf("nt=%d quad=%v %s: count %d, Karp %d", nt, quad, name, n, nK)
				}
				for i := range acc {
					if acc[i].Sub(accK[i]).Norm() > 1e-13*scale ||
						relDiff(pot[i], potK[i]) > 1e-13 {
						t.Fatalf("nt=%d quad=%v %s body %d: %v/%g, Karp %v/%g",
							nt, quad, name, i, acc[i], pot[i], accK[i], potK[i])
					}
				}
			}
		}
	}
}
