// The production interaction kernels, EvalPP/EvalSelf/EvalM2P, defined
// as the plainest Go loops that compute them: for each target one
// accumulator set starting at zero, the whole list swept once in list
// order, the four sums added to the target's output slots once at the
// end. The value chain is the paper's: 1/sqrt(r2) from multiplies and
// adds alone (invSqrt: a bit-trick seed and four Newton steps, as Karp
// took it from a table and two), and every product that feeds a sum an
// explicit math.FMA, so the loops mean the same bits on every
// platform -- Go fuses a plain x*y + z on arm64 but never on amd64,
// and scripts/check.sh compiles these loops for arm64 to hold them to
// that. On amd64 (kernel_amd64.go/.s) the same loops run with eight
// targets in the eight lanes of a ZMM register where AVX-512 is
// usable, and four in a YMM register where AVX2 and FMA are, each
// source broadcast to all of them, using only lane-wise subtract,
// multiply and fused multiply-add: every lane executes exactly the
// scalar sequence below, so the assembly is bit-identical to these
// loops by construction and tests hold it to that at both widths
// (TestKernelAsmMatchesGo, TestRsqrtLanesMatchGo). The divider and
// square root run only where r2 is out of invSqrt's range, out of
// line in the assembly. Nothing selects a path but the CPU probe.
//
// Out of range the reciprocal is 1/math.Sqrt(r2), which has the
// special-case table the Karp routine documents (0 -> +Inf, +Inf -> 0,
// NaN or negative -> NaN, subnormals exact), so the loops carry no
// special-value branch of their own: a NaN or Inf input propagates to
// the targets it touches exactly as IEEE arithmetic says.
//
// What is executed is not what is counted. One body-body (or
// monopole) interaction executes 37 floating-point operations here,
// one quadrupole interaction 71 (an FMA counting two); the counters
// and every flop rate the repo reports still charge the paper's 38
// and 38+70, the cost of the same interaction on the Karp reciprocal
// square root (grav.go's scalar PPTile/PPSelf/M2P, kept as the direct
// sum's reference). diag.ExecutedFlops has the executed figures.
package grav

import "math"

// HaveAVX2 is the probe's verdict for the other packages' four-lane
// kernels (internal/vortex), so that one probe selects every path: AVX2
// and FMA, the four-lane gravity kernels' requirement.
func HaveAVX2() bool { return haveAVX2 }

// KernelPath names the code path the CPU probe selected for EvalPP and
// EvalM2P: "avx512", "avx2" or "go".
func KernelPath() string {
	switch {
	case haveAVX512:
		return "avx512"
	case haveAVX2:
		return "avx2"
	}
	return "go"
}

// Lanes is how many targets share each source row on that path: 8, 4,
// or 1 for the Go loops.
func Lanes() int {
	switch {
	case haveAVX512:
		return 8
	case haveAVX2:
		return 4
	}
	return 1
}

// EvalPP applies every body source of the list to every target.
// Returns the interaction count.
func EvalPP(t *Targets, l *InteractionList, eps2 float64) uint64 {
	if len(l.SM) == 0 || len(t.X) == 0 {
		return 0
	}
	pp(t, l.SX, l.SY, l.SZ, l.SM, eps2)
	return uint64(len(t.X)) * uint64(len(l.SM))
}

// EvalPPGo is EvalPP through the Go loop on every platform: the
// kernel's definition, exported for the tests and benchmarks that
// hold the assembly to it.
func EvalPPGo(t *Targets, l *InteractionList, eps2 float64) uint64 {
	if len(l.SM) == 0 || len(t.X) == 0 {
		return 0
	}
	ppGo(t, l.SX, l.SY, l.SZ, l.SM, eps2)
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
		m2pQuad(t, l, eps2)
	} else {
		pp(t, l.CX, l.CY, l.CZ, l.CM, eps2)
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
		m2pQuadGo(t, l, eps2)
	} else {
		ppGo(t, l.CX, l.CY, l.CZ, l.CM, eps2)
	}
	return uint64(len(t.X)) * uint64(len(l.CM))
}

// invSqrt is the kernels' reciprocal square root. For r2 with an
// exponent in [-1000, 1000) it takes the seed y =
// Float64frombits(rsqrtMagic - bits(r2)>>1), within 3.5e-3 of
// 1/sqrt(r2), and four Newton steps y *= 1.5 - (r2/2)*y*y, one FMA
// each. The relative error squares at every step (1.8e-5, 4.6e-10,
// 3e-19, ...), so what is left is the last step's rounding: within 4
// ulp of 1/math.Sqrt(r2) (TestInvSqrtAccuracy). In that range y*y and
// r2*y*y can neither overflow nor underflow. Everything else -- zero,
// subnormals, huge values, negatives, Inf and NaN -- is
// 1/math.Sqrt(r2) exactly. (The shape of this function is held to Go's
// inlining budget: it is inlined into both kernels.)
func invSqrt(r2 float64) float64 {
	if r2 >= rsqrtLo && r2 < rsqrtHi {
		h, y := -0.5*r2, math.Float64frombits(rsqrtMagic-math.Float64bits(r2)>>1)
		y *= math.FMA(h, y*y, 1.5)
		y *= math.FMA(h, y*y, 1.5)
		y *= math.FMA(h, y*y, 1.5)
		return y * math.FMA(h, y*y, 1.5)
	}
	return 1 / math.Sqrt(r2)
}

// invSqrt's range and seed constant.
const (
	rsqrtLo    = 0x1p-1000
	rsqrtHi    = 0x1p1000
	rsqrtMagic = 0x5FE6EB50C7B537A9
)

// ppGo is the body-body kernel: sources (sx, sy, sz, sm) on every
// target of t. Re-slicing the columns to one shared length hands the
// prove pass the bounds, so the inner loop is check-free
// (scripts/bce.sh).
func ppGo(t *Targets, sx, sy, sz, sm []float64, eps2 float64) {
	n := len(sm)
	sx, sy, sz = sx[:n], sy[:n], sz[:n]
	nt := len(t.X)
	tx, ty, tz := t.X[:nt], t.Y[:nt], t.Z[:nt]
	oax, oay, oaz, opot := t.AX[:nt], t.AY[:nt], t.AZ[:nt], t.Pot[:nt]
	for i := range tx {
		xi, yi, zi := tx[i], ty[i], tz[i]
		var ax, ay, az, p float64
		for j := range sm {
			dx := sx[j] - xi
			dy := sy[j] - yi
			dz := sz[j] - zi
			r2 := math.FMA(dz, dz, math.FMA(dy, dy, math.FMA(dx, dx, eps2)))
			rv := invSqrt(r2)
			rin3 := sm[j] * (rv * (rv * rv))
			ax = math.FMA(rin3, dx, ax)
			ay = math.FMA(rin3, dy, ay)
			az = math.FMA(rin3, dz, az)
			p = math.FMA(-sm[j], rv, p)
		}
		oax[i] += ax
		oay[i] += ay
		oaz[i] += az
		opot[i] += p
	}
}

// m2pQuadGo is the monopole+quadrupole kernel. The difference d
// points from target to cell COM and the quadrupole terms are written
// in d directly (Q.d flips sign with d, d.Q.d does not):
//
//	a   = (M/r^3 + (5/2)(d.Q.d)/r^7) d - Q.d/r^5
//	phi = -(M/r + (d.Q.d)/(2 r^5))
func m2pQuadGo(t *Targets, l *InteractionList, eps2 float64) {
	cm := l.CM
	n := len(cm)
	cx, cy, cz := l.CX[:n], l.CY[:n], l.CZ[:n]
	qxx, qyy, qzz := l.QXX[:n], l.QYY[:n], l.QZZ[:n]
	qxy, qxz, qyz := l.QXY[:n], l.QXZ[:n], l.QYZ[:n]
	nt := len(t.X)
	tx, ty, tz := t.X[:nt], t.Y[:nt], t.Z[:nt]
	oax, oay, oaz, opot := t.AX[:nt], t.AY[:nt], t.AZ[:nt], t.Pot[:nt]
	for i := range tx {
		xi, yi, zi := tx[i], ty[i], tz[i]
		var ax, ay, az, p float64
		for j := range cm {
			da := cx[j] - xi
			db := cy[j] - yi
			dc := cz[j] - zi
			r2 := math.FMA(dc, dc, math.FMA(db, db, math.FMA(da, da, eps2)))
			rv := invSqrt(r2)
			rv2 := rv * rv
			rv3 := rv * rv2
			rv5 := rv3 * rv2
			qdx := math.FMA(qxz[j], dc, math.FMA(qxy[j], db, qxx[j]*da))
			qdy := math.FMA(qyz[j], dc, math.FMA(qyy[j], db, qxy[j]*da))
			qdz := math.FMA(qzz[j], dc, math.FMA(qyz[j], db, qxz[j]*da))
			dqd := math.FMA(dc, qdz, math.FMA(db, qdy, da*qdx))
			mc := math.FMA(dqd, 2.5*(rv5*rv2), cm[j]*rv3) // M/r^3 + (5/2)(d.Q.d)/r^7
			ax = math.FMA(mc, da, math.FMA(-qdx, rv5, ax))
			ay = math.FMA(mc, db, math.FMA(-qdy, rv5, ay))
			az = math.FMA(mc, dc, math.FMA(-qdz, rv5, az))
			p = math.FMA(-cm[j], rv, math.FMA(dqd, -0.5*rv5, p))
		}
		oax[i] += ax
		oay[i] += ay
		oaz[i] += az
		opot[i] += p
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
// fused multiply-add per chain per step, as in the kernels.
func peakProbeGo(n int) (flops, witness float64) {
	a0, a1, a2, a3 := 1.0, 1.1, 1.2, 1.3
	a4, a5, a6, a7 := 1.4, 1.5, 1.6, 1.7
	// A multiplier this near 1 keeps the chains finite for any n.
	const c, d = 1.0000000001, 1e-9
	for i := 0; i < n; i++ {
		a0 = math.FMA(a0, c, d)
		a1 = math.FMA(a1, c, d)
		a2 = math.FMA(a2, c, d)
		a3 = math.FMA(a3, c, d)
		a4 = math.FMA(a4, c, d)
		a5 = math.FMA(a5, c, d)
		a6 = math.FMA(a6, c, d)
		a7 = math.FMA(a7, c, d)
	}
	return 16 * float64(n), a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}
