package sph

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/ic"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
)

// isotropic returns a uniformly random unit vector.
func isotropic(rng *rand.Rand) vec.V3 {
	for {
		v := vec.V3{X: 2*rng.Float64() - 1, Y: 2*rng.Float64() - 1, Z: 2*rng.Float64() - 1}
		if n := v.Norm(); n > 0.1 && n <= 1 {
			return v.Scale(1 / n)
		}
	}
}

// TestPairLoopsAcceptExactlyAtNorm holds the pair loops' squared
// reject to the test it stands in front of: a candidate at r(1 + k
// 2^-52) from the target, k in [-8, 8], in a random direction, is a
// neighbour of the density and of the force pass exactly when
// Norm() <= r for the difference the loops compute. The pairs sit
// inside sqBounds' margin, so a reject bound on the wrong side of r,
// or one without its margin, shows here.
func TestPairLoopsAcceptExactlyAtNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	msg.Run(1, func(c *msg.Comm) {
		e := NewParallel(c, ic.GasSphere(1, 1), ParallelConfig{
			Params: Params{EOS: Isothermal, CS: 1, AlphaVisc: 1, BetaVisc: 2},
		})
		sys := e.Sys
		e.pressure = make([]vec.V3, 1)
		g := &tree.Cell{First: 0, N: 1}
		in, out := 0, 0
		for trial := 0; trial < 400; trial++ {
			x := vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
			h := 0.05 + 0.2*rng.Float64()
			r := 2 * h
			sys.Pos[0], sys.H[0], sys.Rho[0], sys.ID[0] = x, h, 1, 0
			for k := -8; k <= 8; k++ {
				y := x.Add(isotropic(rng).Scale(r * (1 + float64(k)*0x1p-52)))
				want := x.Sub(y).Norm() <= r
				if want {
					in++
				} else {
					out++
				}
				e.cand = core.System{Pos: []vec.V3{y}, Vel: []vec.V3{{X: -1}}, Mass: []float64{1}, H: []float64{h}, Rho: []float64{1}, ID: []int64{1}}
				var dens, force diag.Counters
				e.evalDensity(keys.Root, g, &dens)
				e.evalForces(keys.Root, g, &force)
				if (dens.SPHPairs == 1) != want || (force.SPHPairs == 1) != want {
					t.Fatalf("trial %d k=%d: |x-y| = %v vs r = %v (Norm() <= r: %v): density kept %d, forces kept %d",
						trial, k, x.Sub(y).Norm(), r, want, dens.SPHPairs, force.SPHPairs)
				}
			}
		}
		if in == 0 || out == 0 {
			t.Fatalf("one side of r untested: %d pairs within, %d beyond", in, out)
		}
	})
}

// TestGathererPruneMatchesNorm holds the gatherer's squared prune to
// the unsquared test it replaces, Norm() > b.R + half-diagonal, on
// every cell of a real tree, for bounds whose radius puts the cell
// within a few ulps of the reach, on both sides, and far from it.
func TestGathererPruneMatchesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	msg.Run(1, func(c *msg.Comm) {
		e := NewParallel(c, ic.GasSphere(2000, 3), ParallelConfig{})
		e.Exchange()
		v := &gatherer{e: e}
		checked := 0
		e.Local.Cells.Range(func(_ keys.Key, cell *tree.Cell) bool {
			if cell.N == 0 {
				return true
			}
			center, size := e.Domain.CellCenter(cell.Key)
			halfDiag := size * math.Sqrt(3) / 2
			for trial := 0; trial < 4; trial++ {
				p := vec.V3{X: 2*rng.Float64() - 1, Y: 2*rng.Float64() - 1, Z: 2*rng.Float64() - 1}
				var b tree.Bound
				b.Add(p, 0)
				b.Add(p.Add(vec.V3{X: 0.01, Y: 0.02, Z: 0.01}), 0)
				dist := center.Sub(b.Nearest(center)).Norm()
				for k := -6; k <= 6; k++ {
					b.R = (dist - halfDiag) * (1 + float64(k)*0x1p-52)
					if trial == 3 {
						b.R = dist * rng.Float64() * 2
					}
					want := tree.Open
					if center.Sub(b.Nearest(center)).Norm() > b.R+halfDiag {
						want = tree.Skip
					}
					if got := v.TestBound(cell, &b); got != want {
						t.Fatalf("cell %v, R = %v: TestBound %v, Norm() test %v", cell.Key, b.R, got, want)
					}
					checked++
				}
			}
			return true
		})
		if checked == 0 {
			t.Fatal("no cell checked")
		}
	})
}

// TestParallelPressureForcesConserveMomentum is
// TestPressureForcesConserveMomentum for the engine's pair loops: with
// one smoothing length the neighbour relation and the pair force are
// symmetric, so sum m a = 0 up to roundoff however the particles are
// spread over ranks. A gas sphere with a random velocity field (so
// the viscosity branch runs on about half the pairs), np 1, 2 and 4,
// the ranks' partial sums added in rank order. Measured
// |sum m a| / sum m |a|: 2.4e-17, 1.6e-17, 1.2e-17; the ceiling is ten
// times the largest.
func TestParallelPressureForcesConserveMomentum(t *testing.T) {
	const ceiling = 2.4e-16
	gas := func() *core.System {
		sys := ic.GasSphere(3000, 5)
		rng := rand.New(rand.NewSource(6))
		for i := range sys.Vel {
			sys.Vel[i] = vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(0.3)
		}
		return sys
	}
	for _, np := range []int{1, 2, 4} {
		f := make([]vec.V3, np)
		scale := make([]float64, np)
		pairs := make([]uint64, np)
		msg.Run(np, func(c *msg.Comm) {
			e := NewParallel(c, scatterSPH(gas(), c), ParallelConfig{
				Params: Params{EOS: Isothermal, CS: 0.8, AlphaVisc: 1, BetaVisc: 2},
			})
			r := c.Rank()
			pairs[r] = e.Eval().SPHPairs
			for i := range e.Sys.Acc {
				f[r] = f[r].Add(e.Sys.Acc[i].Scale(e.Sys.Mass[i]))
				scale[r] += e.Sys.Acc[i].Norm() * e.Sys.Mass[i]
			}
		})
		for r := 1; r < np; r++ {
			f[0], scale[0], pairs[0] = f[0].Add(f[r]), scale[0]+scale[r], pairs[0]+pairs[r]
		}
		if pairs[0] == 0 || scale[0] == 0 {
			t.Fatalf("np=%d: no forces (%d pairs)", np, pairs[0])
		}
		rel := f[0].Norm() / scale[0]
		t.Logf("np=%d: |sum m a| / sum m |a| = %.2g over %d pairs", np, rel, pairs[0])
		if rel > ceiling {
			t.Errorf("np=%d: net force %v is %.2g of sum m|a|, ceiling %g", np, f[0], rel, ceiling)
		}
	}
}
