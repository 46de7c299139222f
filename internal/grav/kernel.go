// The production interaction kernels, EvalPP/EvalSelf/EvalM2P, defined
// as the plainest Go loops that compute them. EvalPP and EvalM2P run in
// float32, GRAPE-5's trade: a treecode's force error is the MAC's
// truncation (~1e-4 at the default tolerance), not round-off, so the
// pairwise arithmetic needs single precision only if three rules keep
// its round-off far below that:
//
//   - Relative coordinates. The list carries an origin (the group's
//     box centre, set by tree.Walker.Begin); source and target
//     coordinates are differenced from it in float64 and only then
//     rounded to float32, so a close pair keeps its digits wherever it
//     sits in the box.
//   - Float64 folding. The list is cut into chunks of foldK sources
//     (the last maybe shorter), each starting at an even position. Per
//     chunk a target keeps two float32 partial sums of each of its four
//     outputs: one over the chunk's even positions, one over its odd
//     ones, each from zero in list order. fold adds the two in float64
//     to the target's float64 output slot. A partial's relative
//     round-off is then bounded by (foldK/2)*2^-24, within RoundOff,
//     not by the list's length; and a target's bits depend on its list
//     alone, not on which other targets share its block.
//   - One rounding per operation. Every product that feeds a sum is an
//     explicit fma32, a float32 fused multiply-add correctly rounded
//     in software (Go has none, and float32(math.FMA(...)) rounds
//     twice); everything else is a plain float32 operation, which Go
//     never fuses across a function call or an explicit conversion.
//     So the loops mean the same bits on every platform, and
//     scripts/fma_guard.sh compiles them for arm64 to hold them to
//     that.
//
// The reciprocal square root is the paper's: multiplies and adds alone
// (invSqrt32: a bit-trick seed and three Newton steps, as Karp took it
// from a table and two). On amd64 (kernel_amd64.go/.s) the same loops
// run in lane pairs: a target in two adjacent lanes, one summing the
// even positions and one the odd, and a source pair broadcast to every
// lane pair -- eight targets × two sources in a ZMM register where
// AVX-512 is usable, four × two in a YMM register where AVX2 and FMA
// are -- using only lane-wise subtract, multiply and fused
// multiply-add: every lane executes exactly the scalar sequence below
// for its partial sum, so the assembly is bit-identical to these loops
// by construction, and tests hold it to that on both blocks
// (TestKernelAsmMatchesGo, FuzzKernelLanes, TestRsqrtLanesMatchGo,
// FuzzFMA32).
// The divider and square root run only where r2 is out of invSqrt32's
// range, out of line in the assembly. Nothing selects a path but the
// CPU probe.
//
// Out of range the reciprocal is 1 over the float32 square root, each
// rounded once, which has the special-case table rsqrt.Rsqrt
// documents (0 -> +Inf, +Inf -> 0, NaN or negative -> NaN), so the
// loops carry no special-value branch of their own: a NaN or Inf input
// propagates to the targets it touches exactly as IEEE arithmetic says.
//
// What is executed is not what is counted. One body-body (or
// monopole) interaction executes 33 floating-point operations here,
// one quadrupole interaction 67 (an FMA counting two); the counters
// and every flop rate the repo reports still charge the paper's 38
// and 38+70, the cost of the same interaction on the paper's Karp
// reciprocal square root, rsqrt.Rsqrt (internal/rsqrt, kept as the
// paper's routine under ablation). diag.ExecutedFlops has the executed
// figures.
package grav

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// foldK is how many sources a float32 sweep covers before its sums
// fold into float64: foldK*2^-24 = 7.6e-6 bounds a sweep's relative
// round-off, far below the 1e-4 force error of the default MAC. The
// assembly's chunks are foldK long too (kernel_amd64.s).
const foldK = 128

// RoundOff bounds the relative round-off of EvalPP and EvalM2P against
// the same interactions summed in float64: a chunk's two partial sums
// of foldK/2 terms each, each term a few ulp off, are within
// foldK*2^-24 of the magnitudes they add. It is the tolerance a float64
// replay of a list is held to.
const RoundOff = foldK * 0x1p-24

// HaveAVX2 is the probe's verdict for the other packages' four-lane
// kernels (internal/vortex), so that one probe selects every path: AVX2
// and FMA, the YMM gravity kernels' requirement.
func HaveAVX2() bool { return haveAVX2 }

// KernelPath names the code path the CPU probe selected for EvalPP and
// EvalM2P and the precision its lanes compute in: "avx512-f32",
// "avx2-f32" or "go-f32".
func KernelPath() string {
	switch {
	case haveAVX512:
		return "avx512-f32"
	case haveAVX2:
		return "avx2-f32"
	}
	return "go-f32"
}

// Lanes is how many targets share each source row on that path: the
// targets of one block, 8 (ZMM) or 4 (YMM), or 1 for the Go loops.
func Lanes() int {
	switch {
	case haveAVX512:
		return 8
	case haveAVX2:
		return 4
	}
	return 1
}

// KernelBlock describes that path's block: "8 targets × 2 sources",
// "4 targets × 2 sources" or "1 target × 1 source".
func KernelBlock() string {
	if n := Lanes(); n > 1 {
		return fmt.Sprintf("%d targets × 2 sources", n)
	}
	return "1 target × 1 source"
}

// EvalPP applies every body source of the list to every target.
// Returns the interaction count.
func EvalPP(t *Targets, l *InteractionList, eps2 float64) uint64 {
	if len(l.SM) == 0 || len(t.X) == 0 {
		return 0
	}
	pp(t, l.Origin, l.SX, l.SY, l.SZ, l.SM, float32(eps2))
	return uint64(len(t.X)) * uint64(len(l.SM))
}

// EvalPPGo is EvalPP through the Go loop on every platform: the
// kernel's definition, exported for the tests and benchmarks that
// hold the assembly to it.
func EvalPPGo(t *Targets, l *InteractionList, eps2 float64) uint64 {
	if len(l.SM) == 0 || len(t.X) == 0 {
		return 0
	}
	ppGo(t, l.Origin, l.SX, l.SY, l.SZ, l.SM, float32(eps2))
	return uint64(len(t.X)) * uint64(len(l.SM))
}

// EvalM2P applies every multipole of the list's slab to every target.
// With the difference taken as COM - target the monopole interaction
// is the body-body interaction with the cell columns as sources.
// Returns the interaction count (one per target per cell).
func EvalM2P(t *Targets, l *InteractionList, quad bool, eps2 float64) uint64 {
	if len(l.CM) == 0 || len(t.X) == 0 {
		return 0
	}
	if quad {
		m2pQuad(t, l, float32(eps2))
	} else {
		pp(t, l.Origin, l.CX, l.CY, l.CZ, l.CM, float32(eps2))
	}
	return uint64(len(t.X)) * uint64(len(l.CM))
}

// EvalM2PGo is EvalM2P through the Go loops on every platform (see
// EvalPPGo).
func EvalM2PGo(t *Targets, l *InteractionList, quad bool, eps2 float64) uint64 {
	if len(l.CM) == 0 || len(t.X) == 0 {
		return 0
	}
	if quad {
		m2pQuadGo(t, l, float32(eps2))
	} else {
		ppGo(t, l.Origin, l.CX, l.CY, l.CZ, l.CM, float32(eps2))
	}
	return uint64(len(t.X)) * uint64(len(l.CM))
}

// fma32 returns a*b + c rounded once to float32, as VFMADD231PS does.
// The product of two float32 is exact in float64, so s = a*b + c in
// float64 has rounded once, and float32(s) is the correctly rounded
// result unless s sits exactly on a float32 rounding boundary -- a
// midpoint between two float32, or anything in float32's subnormal
// range -- where the first rounding may have decided the tie
// (a float64 midpoint closer to the exact value than s would
// contradict s being the nearest float64). fma32Odd settles those.
func fma32(a, b, c float32) float32 {
	p := float64(float64(a) * float64(b))
	s := p + float64(c)
	if u := math.Float64bits(s); u&(1<<29-1) != 1<<28 && u&(0x7ff<<52) >= (1023-126)<<52 {
		return float32(s)
	}
	return fma32Odd(p, float64(c), s)
}

// fma32Odd rounds s = p + z to float32 correctly: TwoSum splits p + z
// exactly into s + e; rounding s to odd (one step toward e when e is
// not zero and s is even) keeps, in its last of 53 bits, whether
// anything lies beyond, and 53 >= 24+2 makes float32 of that the
// correctly rounded sum (Boldo and Melquiond's round-to-odd). A
// non-finite s is left as it is.
func fma32Odd(p, z, s float64) float32 {
	bv := s - p
	e := (p - (s - bv)) + (z - bv)
	if u := math.Float64bits(s); e != 0 && u&1 == 0 && s-s == 0 {
		if (e > 0) == (s > 0) {
			u++
		} else {
			u--
		}
		s = math.Float64frombits(u)
	}
	return float32(s)
}

// invSqrt32 is the kernels' reciprocal square root. For r2 with an
// exponent in [-100, 100) it takes the seed y = Float32frombits(
// rsqrt32Magic - bits(r2)>>1), within 3.5e-2 of 1/sqrt(r2), and three
// Newton steps y *= 1.5 - (r2/2)*y*y, one fma32 each. The relative
// error squares at every step (1.8e-3, 4.7e-6, 3e-11), so what is left
// is the last step's rounding: within 2 ulp of float32(1/math.Sqrt(r2))
// (TestInvSqrtAccuracy). In that range y*y and r2*y*y can neither
// overflow nor underflow. Everything else -- zero, subnormals, huge
// values, negatives, Inf and NaN -- is 1 over the float32 square root,
// each rounded once, as VSQRTPS and VDIVPS give it (float32 of the
// float64 square root is the float32 square root, since 53 >= 2*24+2).
func invSqrt32(r2 float32) float32 {
	if r2 >= rsqrt32Lo && r2 < rsqrt32Hi {
		h, y := -0.5*r2, math.Float32frombits(rsqrt32Magic-math.Float32bits(r2)>>1)
		y *= fma32(h, y*y, 1.5)
		y *= fma32(h, y*y, 1.5)
		return y * fma32(h, y*y, 1.5)
	}
	return 1 / float32(math.Sqrt(float64(r2)))
}

// invSqrt32's range and seed constant.
const (
	rsqrt32Lo    = 0x1p-100
	rsqrt32Hi    = 0x1p100
	rsqrt32Magic = 0x5F3759DF
)

// rel32 is a target coordinate in the list's frame: differenced from
// the origin in float64, then rounded.
func rel32(x, o float64) float32 { return float32(x - o) }

// partial is a target's float32 sums over the sources at one parity of
// a chunk's positions.
type partial struct{ ax, ay, az, p float32 }

// fold adds a target's two partial sums of one output over a chunk,
// its even and its odd positions, in float64, and that to the output
// slot: the last step of the kernels' definition. The lane kernels
// execute the same two float64 additions, VADDPD on the widened lanes.
func fold(out *float64, even, odd float32) { *out += float64(even) + float64(odd) }

// ppGo is the body-body kernel: sources (sx, sy, sz, sm), relative to
// o, on every target of t, in chunks of foldK sources, each source
// added to its target's partial of its position's parity.
// Re-slicing the columns to one shared length hands the prove pass
// the bounds, so the inner loop is check-free (scripts/bce.sh).
func ppGo(t *Targets, o vec.V3, sx, sy, sz, sm []float32, eps2 float32) {
	n := len(sm)
	sx, sy, sz = sx[:n], sy[:n], sz[:n]
	nt := len(t.X)
	tx, ty, tz := t.X[:nt], t.Y[:nt], t.Z[:nt]
	oax, oay, oaz, opot := t.AX[:nt], t.AY[:nt], t.AZ[:nt], t.Pot[:nt]
	for i := range tx {
		xi, yi, zi := rel32(tx[i], o.X), rel32(ty[i], o.Y), rel32(tz[i], o.Z)
		for lo := 0; lo < n; lo += foldK {
			m := sm[lo:min(lo+foldK, n)]
			x, y, z := sx[lo:][:len(m)], sy[lo:][:len(m)], sz[lo:][:len(m)]
			var s [2]partial
			for j := range m {
				a := &s[j&1]
				dx := x[j] - xi
				dy := y[j] - yi
				dz := z[j] - zi
				r2 := fma32(dz, dz, fma32(dy, dy, fma32(dx, dx, eps2)))
				rv := invSqrt32(r2)
				rin3 := m[j] * (rv * (rv * rv))
				a.ax = fma32(rin3, dx, a.ax)
				a.ay = fma32(rin3, dy, a.ay)
				a.az = fma32(rin3, dz, a.az)
				a.p = fma32(-m[j], rv, a.p)
			}
			fold(&oax[i], s[0].ax, s[1].ax)
			fold(&oay[i], s[0].ay, s[1].ay)
			fold(&oaz[i], s[0].az, s[1].az)
			fold(&opot[i], s[0].p, s[1].p)
		}
	}
}

// m2pQuadGo is the monopole+quadrupole kernel, in chunks and partial
// sums like ppGo. The difference d points from target to cell COM and
// the quadrupole terms are written in d directly (Q.d flips sign with
// d, d.Q.d does not):
//
//	a   = (M/r^3 + (5/2)(d.Q.d)/r^7) d - Q.d/r^5
//	phi = -(M/r + (d.Q.d)/(2 r^5))
func m2pQuadGo(t *Targets, l *InteractionList, eps2 float32) {
	n := len(l.CM)
	o := l.Origin
	nt := len(t.X)
	tx, ty, tz := t.X[:nt], t.Y[:nt], t.Z[:nt]
	oax, oay, oaz, opot := t.AX[:nt], t.AY[:nt], t.AZ[:nt], t.Pot[:nt]
	for i := range tx {
		xi, yi, zi := rel32(tx[i], o.X), rel32(ty[i], o.Y), rel32(tz[i], o.Z)
		for lo := 0; lo < n; lo += foldK {
			cm := l.CM[lo:min(lo+foldK, n)]
			k := len(cm)
			cx, cy, cz := l.CX[lo:][:k], l.CY[lo:][:k], l.CZ[lo:][:k]
			qxx, qyy, qzz := l.QXX[lo:][:k], l.QYY[lo:][:k], l.QZZ[lo:][:k]
			qxy, qxz, qyz := l.QXY[lo:][:k], l.QXZ[lo:][:k], l.QYZ[lo:][:k]
			var s [2]partial
			for j := range cm {
				a := &s[j&1]
				da := cx[j] - xi
				db := cy[j] - yi
				dc := cz[j] - zi
				r2 := fma32(dc, dc, fma32(db, db, fma32(da, da, eps2)))
				rv := invSqrt32(r2)
				rv2 := rv * rv
				rv3 := rv * rv2
				rv5 := rv3 * rv2
				qdx := fma32(qxz[j], dc, fma32(qxy[j], db, qxx[j]*da))
				qdy := fma32(qyz[j], dc, fma32(qyy[j], db, qxy[j]*da))
				qdz := fma32(qzz[j], dc, fma32(qyz[j], db, qxz[j]*da))
				dqd := fma32(dc, qdz, fma32(db, qdy, da*qdx))
				mc := fma32(dqd, 2.5*(rv5*rv2), cm[j]*rv3) // M/r^3 + (5/2)(d.Q.d)/r^7
				a.ax = fma32(mc, da, fma32(-qdx, rv5, a.ax))
				a.ay = fma32(mc, db, fma32(-qdy, rv5, a.ay))
				a.az = fma32(mc, dc, fma32(-qdz, rv5, a.az))
				a.p = fma32(-cm[j], rv, fma32(dqd, -0.5*rv5, a.p))
			}
			fold(&oax[i], s[0].ax, s[1].ax)
			fold(&oay[i], s[0].ay, s[1].ay)
			fold(&oaz[i], s[0].az, s[1].az)
			fold(&opot[i], s[0].p, s[1].p)
		}
	}
}

// EvalSelf evaluates the group's interaction with itself (both
// directions of every pair, self-pairs skipped). It walks each
// unordered pair (i,j), j < i, exactly once: one distance and one
// reciprocal square root feed both directions, +m_j*rinv3*d
// accumulated into target i's locals and -m_i*rinv3*d scattered into
// body j's output slots. The self pair never appears in the
// enumeration, so a body exactly coincident with another (r2 = eps2)
// is an ordinary pair. Groups are sink cells of at most 64 bodies, 17
// on average: on 10 000 Plummer bodies the self-interaction is 0.9% of
// the counted interactions and 1.1% of the walk-plus-evaluation time
// (0.26% and 0.2% when every leaf was its own group), so this stays
// scalar on every platform. Targets must have been loaded with masses.
// Returns the interaction count, n*(n-1): the physical interactions are
// the same, each is computed once instead of twice.
func EvalSelf(t *Targets, eps2 float64) uint64 {
	n := len(t.X)
	if n == 0 {
		return 0
	}
	x, y, z, ms := t.X[:n], t.Y[:n], t.Z[:n], t.M[:n]
	ax, ay, az, pot := t.AX[:n], t.AY[:n], t.AZ[:n], t.Pot[:n]
	for i := 1; i < n; i++ {
		xi, yi, zi, mi := x[i], y[i], z[i], ms[i]
		var axi, ayi, azi, pi float64
		for j := 0; j < i; j++ {
			dx := x[j] - xi
			dy := y[j] - yi
			dz := z[j] - zi
			r2 := dx*dx + dy*dy + dz*dz + eps2
			rv := 1 / math.Sqrt(r2)
			rv2 := rv * rv
			mjrv := ms[j] * rv
			mirv := mi * rv
			fj := mjrv * rv2
			fi := mirv * rv2
			axi += fj * dx
			ayi += fj * dy
			azi += fj * dz
			pi -= mjrv
			ax[j] -= fi * dx
			ay[j] -= fi * dy
			az[j] -= fi * dz
			pot[j] -= mirv
		}
		ax[i] += axi
		ay[i] += ayi
		az[i] += azi
		pot[i] += pi
	}
	return uint64(n) * uint64(n-1)
}

// peakProbeGo is PeakProbe's scalar form: eight independent chains
// (enough to cover the latency-throughput gap of the FP units), one
// fma32 per chain per step, as in the kernels.
func peakProbeGo(n int) (flops, witness float64) {
	a0, a1, a2, a3 := float32(1.0), float32(1.1), float32(1.2), float32(1.3)
	a4, a5, a6, a7 := float32(1.4), float32(1.5), float32(1.6), float32(1.7)
	// A multiplier below 1 keeps the chains finite for any n.
	const c, d = 0.999, 1e-3
	for i := 0; i < n; i++ {
		a0 = fma32(a0, c, d)
		a1 = fma32(a1, c, d)
		a2 = fma32(a2, c, d)
		a3 = fma32(a3, c, d)
		a4 = fma32(a4, c, d)
		a5 = fma32(a5, c, d)
		a6 = fma32(a6, c, d)
		a7 = fma32(a7, c, d)
	}
	return 16 * float64(n), float64(a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7)
}
