package vortex

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grav"
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
// list of ns particles and ns cells, every column unaligned.
func kernelCase(rng *rand.Rand, nt, ns int) (*vTargets, *vList) {
	tg := &vTargets{
		x: column(rng, nt, 1, 1), y: column(rng, nt, 2, 1), z: column(rng, nt, 3, 1),
		ax: column(rng, nt, 3, 1), ay: column(rng, nt, 1, 1), az: column(rng, nt, 2, 1),
		ux: column(rng, nt, 1, 9), uy: column(rng, nt, 2, 9), uz: column(rng, nt, 3, 9),
		dx: column(rng, nt, 2, 9), dy: column(rng, nt, 3, 9), dz: column(rng, nt, 1, 9),
	}
	l := &vList{
		sx: column(rng, ns, 1, 1), sy: column(rng, ns, 2, 1), sz: column(rng, ns, 3, 1),
		sax: column(rng, ns, 3, 1), say: column(rng, ns, 1, 1), saz: column(rng, ns, 2, 1),
		cells: make([]cellMoment, ns),
	}
	for c := range l.cells {
		m := &l.cells[c]
		m.ASum.X, m.ASum.Y, m.ASum.Z = 2*rng.Float64()-1, 2*rng.Float64()-1, 2*rng.Float64()-1
		m.Centroid.X, m.Centroid.Y, m.Centroid.Z = 4*rng.Float64()-2, 4*rng.Float64()-2, 4*rng.Float64()-2
	}
	return tg, l
}

// coincide puts source q of the list on target j: in j's block only
// j's lane sees r2 == 0.
func (l *vList) coincide(q int, t *vTargets, j int) {
	l.sx[q], l.sy[q], l.sz[q] = t.x[j], t.y[j], t.z[j]
}

// clone copies the block's positions, strengths and incoming sums.
func (t *vTargets) clone() *vTargets {
	dup := func(s []float64) []float64 { return append([]float64(nil), s...) }
	return &vTargets{x: dup(t.x), y: dup(t.y), z: dup(t.z),
		ax: dup(t.ax), ay: dup(t.ay), az: dup(t.az),
		ux: dup(t.ux), uy: dup(t.uy), uz: dup(t.uz),
		dx: dup(t.dx), dy: dup(t.dy), dz: dup(t.dz)}
}

func (t *vTargets) sums() [6][]float64 {
	return [6][]float64{t.ux, t.uy, t.uz, t.dx, t.dy, t.dz}
}

// sameSums fails unless the six sum columns agree bit for bit. With
// nanClass, two NaNs of different payload also agree: which operand's
// NaN an operation keeps is the one thing operand order (free in both
// the compiler and the assembly) may change.
func sameSums(t *testing.T, tag string, a, b *vTargets, nanClass bool) {
	t.Helper()
	as, bs := a.sums(), b.sums()
	for c := range as {
		for i := range as[c] {
			x, y := as[c][i], bs[c][i]
			if math.Float64bits(x) == math.Float64bits(y) || nanClass && math.IsNaN(x) && math.IsNaN(y) {
				continue
			}
			t.Fatalf("%s: sum %d target %d: assembly %x (%g), Go %x (%g)",
				tag, c, i, math.Float64bits(x), x, math.Float64bits(y), y)
		}
	}
}

// TestVortexKernelAsmMatchesGo holds the AVX2 Biot-Savart kernels to
// their definition: all six sums bitwise equal to the Go loops', for
// every remainder of the target count mod 4, list lengths around the
// empty list and the lane count, particles and cells, sources
// coincident with a target in one lane of its block, sigma = 0 and
// not, non-zero incoming sums and unaligned columns; a masked lane's
// sums untouched, +-0 included, where the skipped term is NaN; and the
// same NaN pattern where a centroid on a target makes one.
func TestVortexKernelAsmMatchesGo(t *testing.T) {
	if !grav.HaveAVX2() {
		t.Skip("no AVX2: the Go loops are the only kernel on this host")
	}
	rng := rand.New(rand.NewSource(28))
	for nt := 1; nt <= 17; nt++ {
		for _, ns := range []int{0, 1, 3, 4, 5, 63, 64, 65, 1000} {
			for _, s2 := range []float64{0.15 * 0.15, 0} {
				tg, l := kernelCase(rng, nt, ns)
				if ns >= 3 {
					l.coincide(1, tg, nt-1)
					l.coincide(ns-1, tg, 0)
				}
				ref := tg.clone()
				if evalVelMono(tg, l.cells, s2) != evalVelMonoGo(ref, l.cells, s2) {
					t.Fatalf("nt=%d ns=%d: mono counts differ", nt, ns)
				}
				sameSums(t, "mono", tg, ref, false)
				if evalVelPP(tg, l, s2) != evalVelPPGo(ref, l, s2) {
					t.Fatalf("nt=%d ns=%d: PP counts differ", nt, ns)
				}
				sameSums(t, "pp", tg, ref, false)
			}
		}
	}

	// A lane whose only source is coincident at sigma = 0: the skipped
	// term is NaN (0 * Inf), and the lane's sums, +-0 among them, must
	// come back with their bits.
	negZero := math.Copysign(0, -1)
	for nt := 1; nt <= 6; nt++ {
		for k := 0; k < nt; k++ {
			tg, l := kernelCase(rng, nt, 1)
			l.coincide(0, tg, k)
			tg.ux[k], tg.uy[k], tg.uz[k] = negZero, 0, negZero
			tg.dx[k], tg.dy[k], tg.dz[k] = 0, 5, -7
			in, ref := tg.clone(), tg.clone()
			evalVelPP(tg, l, 0)
			evalVelPPGo(ref, l, 0)
			sameSums(t, "pp masked", tg, ref, false)
			for c, col := range tg.sums() {
				if math.Float64bits(col[k]) != math.Float64bits(in.sums()[c][k]) {
					t.Fatalf("nt=%d k=%d: masked lane's sum %d moved: %x -> %x",
						nt, k, c, math.Float64bits(in.sums()[c][k]), math.Float64bits(col[k]))
				}
			}
		}
	}

	// A cell centroid on a target at sigma = 0: no skip in the monopole
	// loop, so that target's sums turn NaN on both paths, and only its.
	for nt := 1; nt <= 6; nt++ {
		tg, l := kernelCase(rng, nt, 9)
		l.cells[4].Centroid.X, l.cells[4].Centroid.Y, l.cells[4].Centroid.Z = tg.x[nt-1], tg.y[nt-1], tg.z[nt-1]
		ref := tg.clone()
		evalVelMono(tg, l.cells, 0)
		evalVelMonoGo(ref, l.cells, 0)
		sameSums(t, "mono specials", tg, ref, true)
		if !math.IsNaN(tg.ux[nt-1]) {
			t.Fatalf("nt=%d: centroid on a target at sigma=0 gave ux=%g, want NaN", nt, tg.ux[nt-1])
		}
	}
}
