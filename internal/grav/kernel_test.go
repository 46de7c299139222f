package grav

import (
	"fmt"
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

// addAccel adds the exact float64 field of the bodies (spos, smass),
// AccelAt, to each target and returns the interaction count.
func addAccel(tpos []vec.V3, acc []vec.V3, pot []float64, spos []vec.V3, smass []float64, eps2 float64) uint64 {
	for i, x := range tpos {
		a, p := AccelAt(x, spos, smass, eps2)
		acc[i], pot[i] = acc[i].Add(a), pot[i]+p
	}
	return uint64(len(tpos)) * uint64(len(spos))
}

// addSelfAccel adds to each body the exact float64 field of all the
// others and returns the interaction count, n(n-1).
func addSelfAccel(pos []vec.V3, mass []float64, acc []vec.V3, pot []float64, eps2 float64) (n uint64) {
	for i := range pos {
		n += addAccel(pos[i:i+1], acc[i:i+1], pot[i:i+1], pos[:i], mass[:i], eps2)
		n += addAccel(pos[i:i+1], acc[i:i+1], pot[i:i+1], pos[i+1:], mass[i+1:], eps2)
	}
	return n
}

// EvalSelf walks each unordered pair once and never forms the self
// slot. This test pins what a sentinel-based self sweep once got
// wrong: bodies exactly coincident with another body (r2 = eps2, the
// smallest value the kernel can see) must come out equal to the exact
// float64 sum over AccelAt, at group sizes around the four-lane block and around 64 and
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
		nRef := addSelfAccel(pos, mass, accRef, potRef, eps2)

		var tg Targets
		tg.Load(pos, mass)
		got := EvalSelf(&tg, eps2)
		acc := make([]vec.V3, n)
		pot := make([]float64, n)
		tg.Store(acc, pot)
		if got != nRef {
			t.Fatalf("n=%d: count %d, reference %d", n, got, nRef)
		}
		scale := accScale(accRef)
		for i := range acc {
			if math.IsNaN(acc[i].X) || math.IsInf(acc[i].X, 0) {
				t.Fatalf("n=%d body %d: non-finite acceleration %v", n, i, acc[i])
			}
			if acc[i].Sub(accRef[i]).Norm() > 1e-13*scale ||
				relDiff(pot[i], potRef[i]) > 1e-13 {
				t.Fatalf("n=%d body %d: %v/%g, reference %v/%g",
					n, i, acc[i], pot[i], accRef[i], potRef[i])
			}
		}
	}
}

// The production kernels (float32 lanes, Newton reciprocal square
// root and FMAs; dispatching and Go-loop forms) must agree with the
// float64 references, M2P and AccelAt, to the float32 round-off across a full mixed evaluation (multipoles + foreign
// bodies + self) of identical lists, with identical counts, at target
// counts covering every remainder of the four- and eight-target blocks
// and groups of several blocks: RoundOff of the largest acceleration,
// RoundOff relative in the potential.
func TestEvalMatchesFloat64MixedList(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	eps2 := 1e-6
	for _, nt := range []int{1, 3, 4, 5, 16, 25, 67} {
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
		l.AddRuns([]Run{{Pos: spos, Mass: smass}})
		for c := range cells {
			l.AddCells([]*Multipole{&cells[c]})
		}

		for _, quad := range []bool{false, true} {
			accK := make([]vec.V3, nt)
			potK := make([]float64, nt)
			var nK uint64
			for c := range cells {
				nK += M2P(tpos, accK, potK, &cells[c], quad, eps2)
			}
			nK += addAccel(tpos, accK, potK, spos, smass, eps2)
			nK += addSelfAccel(tpos, tmass, accK, potK, eps2)
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
					t.Fatalf("nt=%d quad=%v %s: count %d, float64 %d", nt, quad, name, n, nK)
				}
				for i := range acc {
					if acc[i].Sub(accK[i]).Norm() > RoundOff*scale ||
						relDiff(pot[i], potK[i]) > RoundOff {
						t.Fatalf("nt=%d quad=%v %s body %d: %v/%g, float64 %v/%g",
							nt, quad, name, i, acc[i], pot[i], accK[i], potK[i])
					}
				}
			}
		}
	}
}

// rsqrt32HardCases are the r2 where a multiply-and-add reciprocal is
// most likely to part from the correctly rounded one: every power of
// two and its two neighbours (1 and 1 +- ulp, both edges of
// invSqrt32's range, 2^-100 and 2^100, from either side, among them),
// squares of s with an all-ones significand and of s one step either
// side of a power of two, subnormals, the largest float32, zero, +Inf,
// negatives and NaN.
func rsqrt32HardCases() []float32 {
	var c []float32
	sq := func(s float32) { c = append(c, s*s) }
	for e := -149; e <= 127; e++ {
		p := float32(math.Ldexp(1, e))
		c = append(c, p, math.Nextafter32(p, 0), math.Nextafter32(p, float32(math.Inf(1))))
		if e > -60 && e < 60 {
			sq(p)
			sq(math.Nextafter32(p, 0)) // all-ones significand
			sq(math.Nextafter32(p, float32(math.Inf(1))))
		}
	}
	return append(c, 0, math.SmallestNonzeroFloat32, 1e-44, math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), -1, float32(math.Copysign(0, -1)),
		float32(math.NaN()), math.Float32frombits(0x7f800001))
}

// sameBits reports whether x and y are the same bits or, with
// nanClass, both NaN: which operand's NaN an add keeps is the one
// thing operand order (free in both the compiler and the assembly) may
// change.
func sameBits(x, y float64, nanClass bool) bool {
	return math.Float64bits(x) == math.Float64bits(y) || nanClass && math.IsNaN(x) && math.IsNaN(y)
}

// sameBits32 is sameBits for float32, NaNs by class.
func sameBits32(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || x != x && y != y
}

// invSqrt32ULP returns how many ulp invSqrt32(r2) lies from
// float32(1/math.Sqrt(r2)), and false where r2 is out of invSqrt32's
// range and it is not 1 over the float32 square root (VSQRTPS, then
// VDIVPS) bit for bit (NaNs by class).
func invSqrt32ULP(r2 float32) (int64, bool) {
	got, want := invSqrt32(r2), float32(1/math.Sqrt(float64(r2)))
	if !(r2 >= rsqrt32Lo && r2 < rsqrt32Hi) {
		return 0, sameBits32(got, 1/float32(math.Sqrt(float64(r2))))
	}
	d := int64(math.Float32bits(got)) - int64(math.Float32bits(want))
	return max(d, -d), true
}

// TestInvSqrtAccuracy is the kernels' accuracy gate on their
// reciprocal square root: invSqrt32 within 2 ulp of
// float32(1/math.Sqrt(r2)) on the hard cases and on 10^7 random r2
// spread evenly over the exponents of its range, and 1 over the
// float32 square root outside it. The worst measured is 2 ulp.
func TestInvSqrtAccuracy(t *testing.T) {
	var worst int64
	check := func(r2 float32) {
		d, ok := invSqrt32ULP(r2)
		if !ok || d > 2 {
			t.Fatalf("r2 = %x (%g): invSqrt32 %g, 1/math.Sqrt %g (%d ulp; out of range: %v)",
				math.Float32bits(r2), r2, invSqrt32(r2), 1/math.Sqrt(float64(r2)), d, !ok)
		}
		worst = max(worst, d)
	}
	for _, r2 := range rsqrt32HardCases() {
		check(r2)
	}
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	rng := rand.New(rand.NewSource(33))
	for range n {
		check(float32(math.Ldexp(1+rng.Float64(), rng.Intn(200)-100)))
	}
	t.Logf("worst %d ulp", worst)
}

// column returns n random values as a sub-slice starting off elements
// into its backing array, so columns sit at every 8-byte phase of a
// 32-byte vector.
func column(rng *rand.Rand, n, off int, scale float64) []float64 {
	buf := make([]float64, off+n+1)
	for i := range buf {
		buf[i] = scale * (2*rng.Float64() - 1)
	}
	return buf[off : off+n : off+n]
}

// column32 is column for the list's float32 columns, at every 4-byte
// phase of a 32-byte vector.
func column32(rng *rand.Rand, n, off int, scale float64) []float32 {
	buf := make([]float32, off+n+1)
	for i := range buf {
		buf[i] = float32(scale * (2*rng.Float64() - 1))
	}
	return buf[off : off+n : off+n]
}

// kernelCase builds a target block with non-zero incoming sums and a
// list of ns sources and ns cells about an origin off zero, every
// column unaligned.
func kernelCase(rng *rand.Rand, nt, ns int) (*Targets, *InteractionList) {
	tg := &Targets{
		X: column(rng, nt, 1, 1), Y: column(rng, nt, 2, 1), Z: column(rng, nt, 3, 1),
		AX: column(rng, nt, 3, 9), AY: column(rng, nt, 1, 9), AZ: column(rng, nt, 2, 9),
		Pot: column(rng, nt, 1, 9),
	}
	l := &InteractionList{
		Origin: vec.V3{X: 0.25, Y: -0.125, Z: 0.0625},
		SX:     column32(rng, ns, 1, 1), SY: column32(rng, ns, 2, 1), SZ: column32(rng, ns, 3, 1),
		SM: column32(rng, ns, 1, 1),
		CM: column32(rng, ns, 5, 1),
		CX: column32(rng, ns, 2, 4), CY: column32(rng, ns, 7, 4), CZ: column32(rng, ns, 3, 4),
		QXX: column32(rng, ns, 1, .1), QYY: column32(rng, ns, 6, .1), QZZ: column32(rng, ns, 3, .1),
		QXY: column32(rng, ns, 4, .1), QXZ: column32(rng, ns, 2, .1), QYZ: column32(rng, ns, 1, .1),
	}
	return tg, l
}

// clone copies the block's positions and incoming sums.
func (t *Targets) clone() *Targets {
	dup := func(s []float64) []float64 { return append([]float64(nil), s...) }
	return &Targets{X: dup(t.X), Y: dup(t.Y), Z: dup(t.Z),
		AX: dup(t.AX), AY: dup(t.AY), AZ: dup(t.AZ), Pot: dup(t.Pot)}
}

// sameColumns fails unless the four output columns agree bit for bit
// (NaNs by class with nanClass).
func sameColumns(t *testing.T, tag string, a, b *Targets, nanClass bool) {
	t.Helper()
	cols := [4][2][]float64{{a.AX, b.AX}, {a.AY, b.AY}, {a.AZ, b.AZ}, {a.Pot, b.Pot}}
	for c, p := range cols {
		for i := range p[0] {
			x, y := p[0][i], p[1][i]
			if sameBits(x, y, nanClass) {
				continue
			}
			t.Fatalf("%s: column %d target %d: assembly %x (%g), Go %x (%g)",
				tag, c, i, math.Float64bits(x), x, math.Float64bits(y), y)
		}
	}
}

// TestTargetIndependentOfBlock holds a target's outputs to be a function
// of its list alone: in groups of 1...40 targets, each target's four
// outputs equal, bit for bit, those of the same target evaluated alone,
// for body and cell lists of odd and even lengths around the fold, both
// multipole orders, as dispatched and on the YMM block forced (on a host
// with no lane kernels, the Go loops twice).
func TestTargetIndependentOfBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	const eps2 = 1e-6
	one := func(tg *Targets, i int) *Targets {
		return &Targets{X: tg.X[i : i+1], Y: tg.Y[i : i+1], Z: tg.Z[i : i+1],
			AX: tg.AX[i : i+1], AY: tg.AY[i : i+1], AZ: tg.AZ[i : i+1], Pot: tg.Pot[i : i+1]}
	}
	check := func(t *testing.T) {
		for nt := 1; nt <= 40; nt++ {
			for _, ns := range []int{1, 6, 7, foldK + 3} {
				in, l := kernelCase(rng, nt, ns)
				for _, eval := range []func(*Targets){
					func(tg *Targets) { EvalPP(tg, l, eps2) },
					func(tg *Targets) { EvalM2P(tg, l, false, eps2) },
					func(tg *Targets) { EvalM2P(tg, l, true, eps2) },
				} {
					group, alone := in.clone(), in.clone()
					eval(group)
					for i := range nt {
						eval(one(alone, i))
					}
					sameColumns(t, fmt.Sprintf("nt=%d ns=%d", nt, ns), group, alone, false)
				}
			}
		}
	}
	t.Run("dispatched", check)
	t.Run("lanes8", func(t *testing.T) {
		Lanes8(t)
		check(t)
	})
}
