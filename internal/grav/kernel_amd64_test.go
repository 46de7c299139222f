package grav

import (
	"math"
	"math/rand"
	"testing"
)

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

// kernelCase builds a target block with non-zero incoming sums and a
// list of ns sources and ns cells, every column unaligned.
func kernelCase(rng *rand.Rand, nt, ns int) (*Targets, *InteractionList) {
	tg := &Targets{
		X: column(rng, nt, 1, 1), Y: column(rng, nt, 2, 1), Z: column(rng, nt, 3, 1),
		AX: column(rng, nt, 3, 9), AY: column(rng, nt, 1, 9), AZ: column(rng, nt, 2, 9),
		Pot: column(rng, nt, 1, 9),
	}
	l := &InteractionList{
		SX: column(rng, ns, 1, 1), SY: column(rng, ns, 2, 1), SZ: column(rng, ns, 3, 1),
		SM: column(rng, ns, 1, 1),
		CM: column(rng, ns, 3, 1),
		CX: column(rng, ns, 2, 4), CY: column(rng, ns, 1, 4), CZ: column(rng, ns, 3, 4),
		QXX: column(rng, ns, 1, .1), QYY: column(rng, ns, 2, .1), QZZ: column(rng, ns, 3, .1),
		QXY: column(rng, ns, 3, .1), QXZ: column(rng, ns, 2, .1), QYZ: column(rng, ns, 1, .1),
	}
	return tg, l
}

// clone copies the block's positions and incoming sums.
func (t *Targets) clone() *Targets {
	dup := func(s []float64) []float64 { return append([]float64(nil), s...) }
	return &Targets{X: dup(t.X), Y: dup(t.Y), Z: dup(t.Z),
		AX: dup(t.AX), AY: dup(t.AY), AZ: dup(t.AZ), Pot: dup(t.Pot)}
}

// sameColumns fails unless the four output columns agree bit for bit.
// With nanClass, two NaNs of different payload also agree: which
// operand's NaN an add keeps is the one thing operand order (free in
// both the compiler and the assembly) may change.
func sameColumns(t *testing.T, tag string, a, b *Targets, nanClass bool) {
	t.Helper()
	cols := [4][2][]float64{{a.AX, b.AX}, {a.AY, b.AY}, {a.AZ, b.AZ}, {a.Pot, b.Pot}}
	for c, p := range cols {
		for i := range p[0] {
			x, y := p[0][i], p[1][i]
			if math.Float64bits(x) == math.Float64bits(y) || nanClass && math.IsNaN(x) && math.IsNaN(y) {
				continue
			}
			t.Fatalf("%s: column %d target %d: assembly %x (%g), Go %x (%g)",
				tag, c, i, math.Float64bits(x), x, math.Float64bits(y), y)
		}
	}
}

// TestKernelAsmMatchesGo holds the AVX2 kernels to their definition:
// all four output columns bitwise equal to the Go loops', for every
// remainder of the target count mod 4, list lengths around the empty
// list, the lane count and the old tile length, both multipole
// orders, non-zero incoming sums and unaligned columns; and the same
// NaN/Inf pattern on inputs where IEEE arithmetic produces one.
func TestKernelAsmMatchesGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2: the Go loops are the only kernel on this host")
	}
	rng := rand.New(rand.NewSource(17))
	const eps2 = 1e-6
	for nt := 1; nt <= 17; nt++ {
		for _, ns := range []int{0, 1, 3, 4, 5, 63, 64, 65, 1000} {
			tg, l := kernelCase(rng, nt, ns)
			ref := tg.clone()
			if EvalPP(tg, l, eps2) != EvalPPGo(ref, l, eps2) {
				t.Fatalf("nt=%d ns=%d: PP counts differ", nt, ns)
			}
			sameColumns(t, "pp", tg, ref, false)
			for _, quad := range []bool{false, true} {
				if EvalM2P(tg, l, quad, eps2) != EvalM2PGo(ref, l, quad, eps2) {
					t.Fatalf("nt=%d ns=%d quad=%v: M2P counts differ", nt, ns, quad)
				}
				sameColumns(t, "m2p", tg, ref, false)
			}
		}
	}

	// Special inputs: a source coincident with a target at eps2 = 0
	// (r2 = 0, rv = +Inf, Inf*0 = NaN in that lane only), a separation
	// whose square overflows (rv = 0) and one whose square is subnormal
	// (rv huge, rv^3 overflows).
	for nt := 1; nt <= 6; nt++ {
		tg, l := kernelCase(rng, nt, 9)
		l.SX[2], l.SY[2], l.SZ[2] = tg.X[nt-1], tg.Y[nt-1], tg.Z[nt-1]
		l.CX[4], l.CY[4], l.CZ[4] = tg.X[0], tg.Y[0], tg.Z[0]
		l.SX[5], l.CX[6] = 1e200, -1e200
		l.SX[7], l.SY[7], l.SZ[7] = tg.X[0]+1e-160, tg.Y[0], tg.Z[0]
		l.CX[8], l.CY[8], l.CZ[8] = tg.X[nt-1], tg.Y[nt-1]+1e-160, tg.Z[nt-1]
		in := tg.clone()
		ref := tg.clone()
		EvalPP(tg, l, 0)
		EvalPPGo(ref, l, 0)
		sameColumns(t, "pp specials", tg, ref, true)
		if !math.IsNaN(tg.AX[nt-1]) {
			t.Fatalf("nt=%d: coincident source at eps2=0 gave ax=%g, want NaN", nt, tg.AX[nt-1])
		}
		for _, quad := range []bool{false, true} {
			tg, ref := in.clone(), in.clone()
			EvalM2P(tg, l, quad, 0)
			EvalM2PGo(ref, l, quad, 0)
			sameColumns(t, "m2p specials", tg, ref, true)
		}
	}
}
