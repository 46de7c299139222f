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

	// One entry out of invSqrt's range whose contribution is exactly
	// zero -- a separation whose square overflows, with no quadrupole to
	// make it NaN -- at each position of an odd-length list, so in each
	// lane of the kernels' pairs and alone after them: the sums stay
	// finite, and a lane that missed the divider would be infinite.
	for nt := 1; nt <= 12; nt++ {
		for k := range 7 {
			tg, l := kernelCase(rng, nt, 7)
			l.SX[k], l.CX[k] = 1e200, -1e200
			l.QXX[k], l.QYY[k], l.QZZ[k], l.QXY[k], l.QXZ[k], l.QYZ[k] = 0, 0, 0, 0, 0, 0
			ref := tg.clone()
			EvalPP(tg, l, 0)
			EvalPPGo(ref, l, 0)
			sameColumns(t, "pp out of range", tg, ref, false)
			for _, quad := range []bool{false, true} {
				EvalM2P(tg, l, quad, 0)
				EvalM2PGo(ref, l, quad, 0)
				sameColumns(t, "m2p out of range", tg, ref, false)
			}
		}
	}
}

// rsqrtLanes runs the lane kernels on eight targets at the origin with
// eps2 = r2[k] in lane k and ns unit sources at the origin, so each
// lane's r2 is 0 + r2[k] and its potential is -ns*rv: the kernels'
// reciprocal square root, lane by lane, through pp8's pair loop (ns 2)
// or its odd last source (ns 1), and through pp4 on each half of the
// eight. want is ppGo's potential on the same target and sources.
func rsqrtLanes(r2 *[8]float64, ns int) (got8, got4, want [8]float64) {
	var zeros [2]float64
	ones := [2]float64{1, 1}
	o, m := zeros[:ns], ones[:ns]
	if haveAVX512 {
		var tg laneBlock8
		copy(tg[24:], r2[:])
		var out laneSums8
		pp8(&tg, &o[0], &o[0], &o[0], &m[0], ns, &out)
		copy(got8[:], out[24:])
	}
	for h := 0; h < 8; h += 4 {
		var tg laneBlock
		copy(tg[12:], r2[h:h+4])
		var out laneSums
		pp4(&tg, &o[0], &o[0], &o[0], &m[0], ns, &out)
		copy(got4[h:h+4], out[12:])
	}
	var acc [4]float64
	ref := Targets{X: o[:1], Y: o[:1], Z: o[:1], AX: acc[0:1], AY: acc[1:2], AZ: acc[2:3], Pot: acc[3:4]}
	for k, v := range r2 {
		acc[3] = 0
		ppGo(&ref, o, o, o, m, v)
		want[k] = acc[3]
	}
	return got8, got4, want
}

// checkRsqrtLanes fails unless every lane of every lane kernel that
// runs on this host equals the Go loop bit for bit (NaNs by class), at
// one source and at two.
func checkRsqrtLanes(t testing.TB, r2 *[8]float64) {
	t.Helper()
	for _, ns := range []int{1, 2} {
		got8, got4, want := rsqrtLanes(r2, ns)
		check := func(kernel string, k int, got float64) {
			if !sameBits(got, want[k], true) {
				t.Fatalf("r2 = %x (%g), %d sources: %s potential %x (%g), Go %x (%g)",
					math.Float64bits(r2[k]), r2[k], ns, kernel,
					math.Float64bits(got), got, math.Float64bits(want[k]), want[k])
			}
		}
		for k := range want {
			if haveAVX512 {
				check("pp8", k, got8[k])
			}
			check("pp4", k, got4[k])
		}
	}
}

// TestRsqrtLanesMatchGo holds the lanes' reciprocal -- Newton steps,
// and the divider out of line for lanes out of invSqrt's range -- to
// the Go loop bit for bit, at eight lanes and four: on the hard cases;
// on mixed vectors, one out-of-range lane among in-range ones at every
// lane position; and on 10^7 random r2, half of them random bits over
// the whole positive range (subnormals, Inf and NaN included), half in
// the range a simulation meets.
func TestRsqrtLanesMatchGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2: the Go loops are the only kernel on this host")
	}
	var r2 [8]float64
	hard := rsqrtHardCases()
	for i := 0; i < len(hard); i += 8 {
		for k := range r2 {
			r2[k] = hard[(i+k)%len(hard)]
		}
		checkRsqrtLanes(t, &r2)
	}
	rng := rand.New(rand.NewSource(30))
	for _, bad := range []float64{0, math.Copysign(0, -1), 4e-320, math.Ldexp(1, -1001),
		math.Nextafter(rsqrtLo, 0), rsqrtHi, math.MaxFloat64, math.Inf(1), -1, math.NaN()} {
		for k := range r2 {
			for j := range r2 {
				r2[j] = math.Ldexp(1+rng.Float64(), rng.Intn(120)-60)
			}
			r2[k] = bad
			checkRsqrtLanes(t, &r2)
		}
	}
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
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

// FuzzRsqrtLanes: eight r2 in, the lanes' reciprocal bitwise equal to
// the Go loop's out (NaNs by class), at eight lanes and four. The
// corpus in testdata holds the hard cases of TestRsqrtLanesMatchGo.
func FuzzRsqrtLanes(f *testing.F) {
	if !haveAVX2 {
		f.Skip("no AVX2: the Go loops are the only kernel on this host")
	}
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i float64) {
		checkRsqrtLanes(t, &[8]float64{a, b, c, d, e, g, h, i})
	})
}

// TestProbePaths holds the probe's decision to the features each path
// executes: the four-lane kernels' FMAs fault on an AVX2 host without
// FMA, so that host must get the Go loops.
func TestProbePaths(t *testing.T) {
	const (
		ecx1 = ecx1FMA | ecx1OSXSAVE | ecx1AVX
		ebx7 = ebx7AVX2 | ebx7AVX512F
	)
	for _, tc := range []struct {
		name        string
		w           cpuWords
		four, eight bool
	}{
		{"avx512", cpuWords{0xd, ecx1, ebx7, xcr0ZMM}, true, true},
		{"avx2", cpuWords{7, ecx1, ebx7AVX2, xcr0YMM}, true, false},
		{"avx2 without fma", cpuWords{7, ecx1 &^ ecx1FMA, ebx7AVX2, xcr0YMM}, false, false},
		{"avx512 without fma", cpuWords{0xd, ecx1 &^ ecx1FMA, ebx7, xcr0ZMM}, false, false},
		{"avx512f without avx2", cpuWords{0xd, ecx1, ebx7AVX512F, xcr0ZMM}, false, false},
		{"no osxsave", cpuWords{7, ecx1 &^ ecx1OSXSAVE, ebx7, 0}, false, false},
		{"os saves no ymm", cpuWords{7, ecx1, ebx7, 0x3}, false, false},
		{"os saves no zmm", cpuWords{0xd, ecx1, ebx7, xcr0YMM}, true, false},
		{"no leaf 7", cpuWords{6, ecx1, 0, xcr0ZMM}, false, false},
		{"nothing", cpuWords{}, false, false},
	} {
		four, eight := tc.w.paths()
		if four != tc.four || eight != tc.eight {
			t.Errorf("%s: paths() = (%v, %v), want (%v, %v)", tc.name, four, eight, tc.four, tc.eight)
		}
	}
	if four, eight := readCPU().paths(); four != haveAVX2 || eight != haveAVX512 {
		t.Errorf("probe re-read (%v, %v), at startup (%v, %v)", four, eight, haveAVX2, haveAVX512)
	}
}
