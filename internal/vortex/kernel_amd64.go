package vortex

import "repro/internal/grav"

// vLanes is what the assembly reads its four targets from: x[4] y[4]
// z[4] and alpha x[4] y[4] z[4], then the per-call constants s2,
// 2.5*s2, 3.5*s2, -3, 1 and 1/(4 pi) in all four lanes each -- the
// values the Go loops compute or fold, so the lanes see the same bits.
type vLanes [48]float64

// vSums is the four lanes' running sums, read on entry and written on
// exit: velocity x[4] y[4] z[4], then dalpha x[4] y[4] z[4].
type vSums [24]float64

// velPP4 sweeps n source particles over the block's targets; cols
// holds the list's columns in the order x y z alpha x y z.
//
//go:noescape
func velPP4(tg *vLanes, cols *[6]*float64, n int, acc *vSums)

// velMono4 sweeps n cell monopoles (the cellMoment array, 48 bytes
// apiece: ASum then Centroid) over the block's targets.
//
//go:noescape
func velMono4(tg *vLanes, cells *cellMoment, n int, acc *vSums)

// setSigma fills the constant lanes for the core radius squared s2.
func (b *vLanes) setSigma(s2 float64) {
	for k := 0; k < 4; k++ {
		b[24+k], b[28+k], b[32+k] = s2, 2.5*s2, 3.5*s2
		b[36+k], b[40+k], b[44+k] = -3, 1, fourPiInv
	}
}

// load gathers targets [i, i+4) of t and their sums into the lanes and
// returns how many of them exist: the spare lanes of a group's last
// block repeat its last target, and vSums.store discards what they
// compute.
func (b *vLanes) load(t *vTargets, i int, s *vSums) int {
	m := min(4, len(t.x)-i)
	for k := 0; k < 4; k++ {
		j := i + min(k, m-1)
		b[k], b[4+k], b[8+k] = t.x[j], t.y[j], t.z[j]
		b[12+k], b[16+k], b[20+k] = t.ax[j], t.ay[j], t.az[j]
		s[k], s[4+k], s[8+k] = t.ux[j], t.uy[j], t.uz[j]
		s[12+k], s[16+k], s[20+k] = t.dx[j], t.dy[j], t.dz[j]
	}
	return m
}

// store writes the first m lanes' sums back to targets [i, i+m) of t.
func (s *vSums) store(t *vTargets, i, m int) {
	for k := 0; k < m; k++ {
		t.ux[i+k], t.uy[i+k], t.uz[i+k] = s[k], s[4+k], s[8+k]
		t.dx[i+k], t.dy[i+k], t.dz[i+k] = s[12+k], s[16+k], s[20+k]
	}
}

// evalVelPP is evalVelPPGo, four targets at a time where the probe
// found AVX2.
func evalVelPP(t *vTargets, l *vList, s2 float64) uint64 {
	n := len(l.sx)
	if !grav.HaveAVX2() || n == 0 {
		return evalVelPPGo(t, l, s2)
	}
	cols := [6]*float64{
		&l.sx[0], &l.sy[:n][0], &l.sz[:n][0],
		&l.sax[:n][0], &l.say[:n][0], &l.saz[:n][0],
	}
	var tg vLanes
	var acc vSums
	tg.setSigma(s2)
	for i := 0; i < len(t.x); i += 4 {
		m := tg.load(t, i, &acc)
		velPP4(&tg, &cols, n, &acc)
		acc.store(t, i, m)
	}
	return uint64(len(t.x)) * uint64(n)
}

// evalVelMono is evalVelMonoGo, four targets at a time where the probe
// found AVX2.
func evalVelMono(t *vTargets, cells []cellMoment, s2 float64) uint64 {
	if !grav.HaveAVX2() || len(cells) == 0 {
		return evalVelMonoGo(t, cells, s2)
	}
	var tg vLanes
	var acc vSums
	tg.setSigma(s2)
	for i := 0; i < len(t.x); i += 4 {
		m := tg.load(t, i, &acc)
		velMono4(&tg, &cells[0], len(cells), &acc)
		acc.store(t, i, m)
	}
	return uint64(len(t.x)) * uint64(len(cells))
}
