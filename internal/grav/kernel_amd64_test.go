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

// sameBits reports whether x and y are the same bits or, with
// nanClass, both NaN: which operand's NaN an add keeps is the one
// thing operand order (free in both the compiler and the assembly) may
// change.
func sameBits(x, y float64, nanClass bool) bool {
	return math.Float64bits(x) == math.Float64bits(y) || nanClass && math.IsNaN(x) && math.IsNaN(y)
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

// TestKernelAsmMatchesGo holds the assembly kernels to their
// definition at both widths -- as dispatched (eight-lane blocks on an
// AVX-512 host, then a four-lane tail) and with the four-lane path
// forced: all four output columns bitwise equal to the Go loops', for
// target counts 1...33 (every remainder mod 8 and mod 4), list lengths
// around the empty list, the lane counts and the old tile length, both
// multipole orders, non-zero incoming sums and unaligned columns; and
// the same NaN/Inf pattern on inputs where IEEE arithmetic produces
// one.
func TestKernelAsmMatchesGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2: the Go loops are the only kernel on this host")
	}
	t.Run("dispatched", kernelAsmMatchesGo)
	t.Run("lanes4", func(t *testing.T) {
		Lanes4(t)
		kernelAsmMatchesGo(t)
	})
}

func kernelAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const eps2 = 1e-6
	for nt := 1; nt <= 33; nt++ {
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
	// (rv huge, rv^3 overflows), in four- and eight-lane blocks.
	for nt := 1; nt <= 12; nt++ {
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

// rsqrtLanes runs pp8 on eight targets at the origin with eps2 = r2[k]
// in lane k and one unit source at the origin, so each lane's r2 is
// 0 + r2[k] and its potential is 0 - rv: pp8's reciprocal square root,
// lane by lane. want is ppGo's potential on the same target and
// source.
func rsqrtLanes(r2 *[8]float64) (got, want [8]float64) {
	var tg laneBlock8
	copy(tg[24:], r2[:])
	var out laneSums8
	o := []float64{0}
	pp8(&tg, &o[0], &o[0], &o[0], &[]float64{1}[0], 1, &out)
	copy(got[:], out[24:])
	var acc [4]float64
	ref := Targets{X: o, Y: o, Z: o, AX: acc[0:1], AY: acc[1:2], AZ: acc[2:3], Pot: acc[3:4]}
	for k, v := range r2 {
		acc[3] = 0
		ppGo(&ref, o, o, o, []float64{1}, v)
		want[k] = acc[3]
	}
	return got, want
}

func checkRsqrtLanes(t testing.TB, r2 *[8]float64) {
	t.Helper()
	got, want := rsqrtLanes(r2)
	for k := range got {
		if !sameBits(got[k], want[k], true) {
			t.Fatalf("r2 = %x (%g): pp8 potential %x (%g), Go %x (%g)", math.Float64bits(r2[k]), r2[k],
				math.Float64bits(got[k]), got[k], math.Float64bits(want[k]), want[k])
		}
	}
}

// rsqrtHardCases are the r2 where a multiply-and-add reciprocal is
// most likely to part from 1/math.Sqrt: squares of s with an all-ones
// significand and of s one step either side of a power of two, powers
// of two, s at 2^-510 and 2^510 and one step past them, s at the ends
// of its range (the smallest subnormal r2 and the largest double),
// subnormals, zero, +Inf, negatives and NaN.
func rsqrtHardCases() []float64 {
	var c []float64
	sq := func(s float64) { c = append(c, s*s) }
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		c = append(c, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
		if e > -500 && e < 500 {
			sq(p)
			sq(math.Nextafter(p, 0)) // all-ones significand
			sq(math.Nextafter(p, math.Inf(1)))
		}
	}
	for _, s := range []float64{math.Ldexp(1, -510), math.Ldexp(1, 510)} {
		sq(s)
		sq(math.Nextafter(s, 0))
		sq(math.Nextafter(s, math.Inf(1)))
	}
	return append(c, 0, math.SmallestNonzeroFloat64, 4e-320, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), -1, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff0000000000001))
}

// TestRsqrtLanesMatchGo holds pp8's reciprocal -- Newton steps kept
// only where the exact residual proves them right, the divider
// elsewhere -- to 1/math.Sqrt bit for bit: on the hard cases and on
// 10^7 random r2, half of them random bits over the whole positive
// range (subnormals, Inf and NaN included), half in the range a
// simulation meets.
func TestRsqrtLanesMatchGo(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512: pp8 does not run on this host")
	}
	var r2 [8]float64
	hard := rsqrtHardCases()
	for i := 0; i < len(hard); i += 8 {
		for k := range r2 {
			r2[k] = hard[(i+k)%len(hard)]
		}
		checkRsqrtLanes(t, &r2)
	}
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < n; i += 8 {
		for k := range r2 {
			if k%2 == 0 {
				r2[k] = math.Float64frombits(rng.Uint64() >> 1)
			} else {
				r2[k] = math.Ldexp(1+rng.Float64(), rng.Intn(120)-60)
			}
		}
		checkRsqrtLanes(t, &r2)
	}
}

// FuzzRsqrtLanes: eight r2 in, pp8's reciprocal bitwise equal to
// 1/math.Sqrt out (NaNs by class). The corpus in testdata holds the
// hard cases of TestRsqrtLanesMatchGo.
func FuzzRsqrtLanes(f *testing.F) {
	if !haveAVX512 {
		f.Skip("no AVX-512: pp8 does not run on this host")
	}
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i float64) {
		checkRsqrtLanes(t, &[8]float64{a, b, c, d, e, g, h, i})
	})
}
