package grav

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// TestKernelAsmMatchesGo holds the assembly kernels to their
// definition on both blocks -- as dispatched (eight targets × two
// sources in a ZMM register on an AVX-512 host) and with the YMM block
// of four targets × two sources forced: all four output columns bitwise
// equal to the Go loops', for target counts 1...40 (every remainder mod
// 8 and mod 4, so every partial last block), list lengths around the
// empty list, odd and even, the pairs per iteration and every side of
// one and two fold boundaries (foldK), both multipole orders, non-zero
// incoming sums and unaligned columns; and the same NaN/Inf pattern on
// inputs where IEEE arithmetic produces one.
func TestKernelAsmMatchesGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2: the Go loops are the only kernel on this host")
	}
	t.Run("dispatched", kernelAsmMatchesGo)
	t.Run("lanes8", func(t *testing.T) {
		Lanes8(t)
		kernelAsmMatchesGo(t)
	})
}

func kernelAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const eps2 = 1e-6
	for nt := 1; nt <= 40; nt++ {
		for _, ns := range []int{0, 1, 3, 8, 15, 16, 17, 63, 64, foldK - 1, foldK, foldK + 1, 2*foldK + 1, 1000} {
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

	// Special inputs, with the first target at the origin: a source
	// coincident with the last target at eps2 = 0 (r2 = 0, rv = +Inf,
	// Inf*0 = NaN in that lane only), a separation whose square
	// overflows (rv = 0) and one whose square is subnormal (rv huge,
	// rv^3 overflows), in full and partial blocks, one of them past a
	// fold boundary.
	for nt := 1; nt <= 24; nt++ {
		tg, l := kernelCase(rng, nt, foldK+9)
		tg.X[0], tg.Y[0], tg.Z[0] = l.Origin.X, l.Origin.Y, l.Origin.Z
		last := func(s []float64, o float64) float32 { return rel32(s[nt-1], o) }
		o := l.Origin
		l.SX[2], l.SY[2], l.SZ[2] = last(tg.X, o.X), last(tg.Y, o.Y), last(tg.Z, o.Z)
		l.CX[4], l.CY[4], l.CZ[4] = 0, 0, 0
		l.SX[5], l.CX[6] = 1e20, -1e20
		l.SX[foldK+7], l.SY[foldK+7], l.SZ[foldK+7] = 1e-21, 0, 0
		l.CX[8], l.CY[8], l.CZ[8] = 0, -1e-21, 0
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

	// One entry out of invSqrt32's range whose contribution is exactly
	// zero -- a separation whose square overflows, with no quadrupole to
	// make it NaN -- at each position of an odd-length list, so in each
	// pair of a ZMM kernel's two, in its last pair and as the odd last
	// source: the sums stay finite, and a lane that missed the divider
	// would be infinite.
	for nt := 1; nt <= 24; nt++ {
		for k := range 7 {
			tg, l := kernelCase(rng, nt, 7)
			l.SX[k], l.CX[k] = 1e20, -1e20
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

// rsqrtLanes runs the pair kernels on targets at the origin with eps2 =
// r2[k] in both lanes of target k and ns unit sources at the origin, so
// each lane's r2 is 0 + r2[k] and its potential partial -rv for each
// source it sums: the kernels' reciprocal square root, lane by lane,
// through pp8x2's two-pair loop (ns 4), its last block as a pair (ns 2,
// 3) and as the odd last source (ns 1, 3), and through pp4x2's pair
// loop and odd last source, sixteen targets in two ZMM blocks and four
// YMM ones. want is ppGo's potential on the same target and sources.
func rsqrtLanes(r2 *[16]float32, ns int) (got16, got8, want [16]float64) {
	var zeros [4]float32
	ones := [4]float32{1, 1, 1, 1}
	o, m := zeros[:ns], ones[:ns]
	var acc [4][8]float64
	out := [4]*float64{&acc[0][0], &acc[1][0], &acc[2][0], &acc[3][0]}
	if haveAVX512 {
		for h := 0; h < 16; h += 8 {
			var b laneBlock16
			for l := range 16 {
				b[48+l] = r2[h+l/2]
			}
			acc[3] = [8]float64{}
			pp8x2(&b, &o[0], &o[0], &o[0], &m[0], ns, &out, 8)
			copy(got16[h:h+8], acc[3][:])
		}
	}
	for h := 0; h < 16; h += 4 {
		var b laneBlock8
		for l := range 8 {
			b[24+l] = r2[h+l/2]
		}
		acc[3] = [8]float64{}
		pp4x2(&b, &o[0], &o[0], &o[0], &m[0], ns, &out, 4)
		copy(got8[h:h+4], acc[3][:4])
	}
	var ref [4]float64
	zero := []float64{0}
	tg := Targets{X: zero, Y: zero, Z: zero, AX: ref[0:1], AY: ref[1:2], AZ: ref[2:3], Pot: ref[3:4]}
	for k, v := range r2 {
		ref[3] = 0
		ppGo(&tg, vec.V3{}, o, o, o, m, v)
		want[k] = ref[3]
	}
	return got16, got8, want
}

// checkRsqrtLanes fails unless every target of every pair kernel that
// runs on this host equals the Go loop bit for bit (NaNs by class), at
// one to four sources.
func checkRsqrtLanes(t testing.TB, r2 *[16]float32) {
	t.Helper()
	for ns := 1; ns <= 4; ns++ {
		got16, got8, want := rsqrtLanes(r2, ns)
		check := func(kernel string, k int, got float64) {
			if !sameBits(got, want[k], true) {
				t.Fatalf("r2 = %x (%g), %d sources: %s potential %x (%g), Go %x (%g)",
					math.Float32bits(r2[k]), r2[k], ns, kernel,
					math.Float64bits(got), got, math.Float64bits(want[k]), want[k])
			}
		}
		for k := range want {
			if haveAVX512 {
				check("pp8x2", k, got16[k])
			}
			check("pp4x2", k, got8[k])
		}
	}
}

// TestRsqrtLanesMatchGo holds the lanes' reciprocal -- Newton steps,
// and the divider out of line for lanes out of invSqrt32's range -- to
// the Go loop bit for bit, on the ZMM block and the YMM one: on the hard
// cases; on mixed vectors, one out-of-range lane among in-range ones at
// every lane position; and on 10^7 random r2, half of them random bits
// over the whole positive range (subnormals, Inf and NaN included),
// half in the range a simulation meets.
func TestRsqrtLanesMatchGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2: the Go loops are the only kernel on this host")
	}
	var r2 [16]float32
	hard := rsqrt32HardCases()
	for i := 0; i < len(hard); i += 16 {
		for k := range r2 {
			r2[k] = hard[(i+k)%len(hard)]
		}
		checkRsqrtLanes(t, &r2)
	}
	rng := rand.New(rand.NewSource(30))
	inRange := func() float32 { return float32(math.Ldexp(1+rng.Float64(), rng.Intn(120)-60)) }
	for _, bad := range []float32{0, float32(math.Copysign(0, -1)), 1e-44, 0x1p-101,
		math.Nextafter32(rsqrt32Lo, 0), rsqrt32Hi, math.MaxFloat32, float32(math.Inf(1)), -1, float32(math.NaN())} {
		for k := range r2 {
			for j := range r2 {
				r2[j] = inRange()
			}
			r2[k] = bad
			checkRsqrtLanes(t, &r2)
		}
	}
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	for i := 0; i < n; i += 16 {
		for k := range r2 {
			if k%2 == 0 {
				r2[k] = math.Float32frombits(rng.Uint32() >> 1)
			} else {
				r2[k] = inRange()
			}
		}
		checkRsqrtLanes(t, &r2)
	}
}

// FuzzRsqrtLanes: sixteen r2 in, the low and high halves of eight
// float64's bits, the lanes' reciprocal bitwise equal to the Go loop's
// out (NaNs by class), on the ZMM block and the YMM one. The corpus in
// testdata holds the hard cases of TestRsqrtLanesMatchGo.
func FuzzRsqrtLanes(f *testing.F) {
	if !haveAVX2 {
		f.Skip("no AVX2: the Go loops are the only kernel on this host")
	}
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i float64) {
		var r2 [16]float32
		for k, v := range [8]float64{a, b, c, d, e, g, h, i} {
			u := math.Float64bits(v)
			r2[2*k], r2[2*k+1] = math.Float32frombits(uint32(u)), math.Float32frombits(uint32(u>>32))
		}
		checkRsqrtLanes(t, &r2)
	})
}

// checkFMA32 fails unless fma32 equals VFMADD231PS on eight triples,
// bit for bit (NaNs by class: which operand's payload survives is the
// hardware's choice).
func checkFMA32(t testing.TB, a, b, c *[8]float32) {
	t.Helper()
	got := *c
	fmaLanes8(a, b, &got)
	for k := range got {
		want := fma32(a[k], b[k], c[k])
		if !sameBits32(got[k], want) {
			t.Fatalf("fma32(%x, %x, %x) = %x (%g), VFMADD231PS %x (%g)",
				math.Float32bits(a[k]), math.Float32bits(b[k]), math.Float32bits(c[k]),
				math.Float32bits(want), want, math.Float32bits(got[k]), got[k])
		}
	}
}

// fmaTriple draws one fused multiply-add's operands of kind k: random
// bits (every class: subnormals, Inf, NaN), mixed exponents within a
// few octaves of each other, c cancelling a*b to its last bits, where
// the single rounding shows, and a*b + c within 2^-46 of a half ulp of
// c off c, so that the float64 sum lands on a float32 midpoint it is
// not: the case where rounding twice goes wrong, for c normal and c
// subnormal.
func fmaTriple(rng *rand.Rand, k int) (a, b, c float32) {
	switch k % 5 {
	case 4:
		a = float32(math.Ldexp(1+0x1p-23, -75))
		b = float32(math.Ldexp(1-0x1p-23, -75))
		c = math.Float32frombits(rng.Uint32() & 0x807fffff)
		return a, b, c
	case 3:
		e := rng.Intn(200) - 100
		c = float32(math.Ldexp(1+float64(rng.Intn(1<<23))*0x1p-23, e))
		a = float32(math.Ldexp(1+0x1p-23, e-12))
		b = float32(math.Ldexp(1-0x1p-23, -12))
		if rng.Intn(2) == 0 {
			b = a
		}
		if rng.Intn(2) == 0 {
			a = -a
		}
		if rng.Intn(2) == 0 {
			c = -c
		}
		return a, b, c
	case 0:
		return math.Float32frombits(rng.Uint32()), math.Float32frombits(rng.Uint32()), math.Float32frombits(rng.Uint32())
	case 1:
		v := func() float32 {
			return float32(math.Ldexp(2*rng.Float64()-1, rng.Intn(60)-30))
		}
		return v(), v(), v()
	}
	a = float32(math.Ldexp(1+rng.Float64(), rng.Intn(40)-20))
	b = float32(math.Ldexp(1+rng.Float64(), rng.Intn(40)-20))
	c = -a * b
	u := math.Float32bits(c) + uint32(rng.Intn(9)) - 4
	return a, b, math.Float32frombits(u)
}

// TestFMA32MatchesHardware holds fma32 to VFMADD231PS on 4*10^6
// triples of fmaTriple's kinds.
func TestFMA32MatchesHardware(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 and FMA: no hardware fused multiply-add to compare with")
	}
	n := 4_000_000
	if testing.Short() {
		n = 400_000
	}
	rng := rand.New(rand.NewSource(38))
	var a, b, c [8]float32
	for i := 0; i < n; i += 8 {
		for k := range a {
			a[k], b[k], c[k] = fmaTriple(rng, i/8+k)
		}
		checkFMA32(t, &a, &b, &c)
	}
}

// FuzzFMA32: three float32 bit patterns in, fma32 bitwise equal to
// VFMADD231PS out (NaNs by class), each operand also in the other two
// positions. The seed corpus holds exact and near cancellation, ties
// and near-ties at the rounding boundary, subnormal and overflowing
// results, and NaN and Inf operands.
func FuzzFMA32(f *testing.F) {
	if !haveAVX2 {
		f.Skip("no AVX2 and FMA: no hardware fused multiply-add to compare with")
	}
	for _, s := range [][3]uint32{
		{0x3f800001, 0x3f800001, 0xbf800002}, // (1+u)^2 - (1+2u): u^2 survives only fused
		{0x3fa00000, 0x3fa00000, 0xbfc80000}, // 1.25^2 - 1.5625: exact zero
		{0x3f800001, 0x3f7fffff, 0xbf800000}, // a tie below 1
		{0x39800001, 0x397ffffe, 0x3f800001}, // 1 + 3*2^-24 - 2^-70: a float64 midpoint it is not
		{0x1a000001, 0x19fffffe, 0x007fffff}, // the same below 2^-126, on a subnormal midpoint
		{0x4b800001, 0x3f800000, 0x3f000000}, // a half-ulp addend on an odd significand
		{0x00800000, 0x3f000000, 0x00000001}, // a subnormal result
		{0x7f7fffff, 0x40000000, 0xff7fffff}, // a product past MaxFloat32 brought back
		{0x7f7fffff, 0x3f800001, 0x00000000}, // overflow to +Inf
		{0x7f800000, 0x00000000, 0x3f800000}, // Inf*0 = NaN
		{0x7f800000, 0x3f800000, 0xff800000}, // Inf - Inf = NaN
		{0x7fc00001, 0x3f800000, 0x7fa00002}, // two NaN payloads
		{0x80000000, 0x3f800000, 0x00000000}, // -0 + +0 = +0
		{0x80000001, 0x80000001, 0x80000000}, // a subnormal product under -0
	} {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, x, y, z uint32) {
		a := [8]float32{math.Float32frombits(x), math.Float32frombits(y), math.Float32frombits(z)}
		b := [8]float32{math.Float32frombits(y), math.Float32frombits(z), math.Float32frombits(x)}
		c := [8]float32{math.Float32frombits(z), math.Float32frombits(x), math.Float32frombits(y)}
		checkFMA32(t, &a, &b, &c)
	})
}

// TestProbePaths holds the probe's decision to the features each path
// executes: the YMM kernels' FMAs fault on an AVX2 host without
// FMA, so that host must get the Go loops.
func TestProbePaths(t *testing.T) {
	const (
		ecx1 = ecx1FMA | ecx1OSXSAVE | ecx1AVX
		ebx7 = ebx7AVX2 | ebx7AVX512F
	)
	for _, tc := range []struct {
		name           string
		w              cpuWords
		eight, sixteen bool
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
		eight, sixteen := tc.w.paths()
		if eight != tc.eight || sixteen != tc.sixteen {
			t.Errorf("%s: paths() = (%v, %v), want (%v, %v)", tc.name, eight, sixteen, tc.eight, tc.sixteen)
		}
	}
	if eight, sixteen := readCPU().paths(); eight != haveAVX2 || sixteen != haveAVX512 {
		t.Errorf("probe re-read (%v, %v), at startup (%v, %v)", eight, sixteen, haveAVX2, haveAVX512)
	}
}

// listColumns are the list's float32 columns, in the order
// FuzzKernelLanes names them by.
func listColumns(l *InteractionList) [14][]float32 {
	return [14][]float32{l.SX, l.SY, l.SZ, l.SM, l.CM, l.CX, l.CY, l.CZ,
		l.QXX, l.QYY, l.QZZ, l.QXY, l.QXZ, l.QYZ}
}

// FuzzKernelLanes: a group of 1...40 targets, a list of 0...300
// sources and cells from a seeded generator, and two float32 bit
// patterns written into one of the list's columns, one at any position
// and one in the last slot, the odd last source of an odd list. EvalPP
// and EvalM2P (quadrupole and monopole) must equal EvalPPGo and
// EvalM2PGo bit for bit (NaNs by class), as dispatched and on the YMM
// block forced. The corpus in testdata holds NaN, Inf, subnormal and
// signed-zero patterns in the odd last slot and lists at the fold
// boundaries.
func FuzzKernelLanes(f *testing.F) {
	if !haveAVX2 {
		f.Skip("no AVX2: the Go loops are the only kernel on this host")
	}
	f.Fuzz(func(t *testing.T, ntb uint8, nsb uint16, seed int64, col uint8, pos uint16, bits, last uint32) {
		nt, ns := 1+int(ntb)%40, int(nsb)%301
		tg, l := kernelCase(rand.New(rand.NewSource(seed)), nt, ns)
		if ns > 0 {
			c := listColumns(l)[int(col)%14]
			c[int(pos)%ns] = math.Float32frombits(bits)
			c[ns-1] = math.Float32frombits(last)
		}
		const eps2 = 1e-6
		for _, ymm := range []bool{false, true} {
			if ymm && !haveAVX512 {
				continue
			}
			old := haveAVX512
			haveAVX512 = !ymm && old
			got, ref := tg.clone(), tg.clone()
			EvalPP(got, l, eps2)
			EvalPPGo(ref, l, eps2)
			sameColumns(t, "pp", got, ref, true)
			for _, quad := range []bool{false, true} {
				got, ref := tg.clone(), tg.clone()
				EvalM2P(got, l, quad, eps2)
				EvalM2PGo(ref, l, quad, eps2)
				sameColumns(t, "m2p", got, ref, true)
			}
			haveAVX512 = old
		}
	})
}
