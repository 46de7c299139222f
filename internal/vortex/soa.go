package vortex

import (
	"slices"

	"repro/internal/vec"
)

// Batched, structure-of-arrays evaluation for the vortex tree walk:
// the vector-valued twin of internal/grav's interaction-list path.
// The walk gathers accepted cell monopoles and leaf particles into a
// vList, and the kernels (kernel.go) sweep the whole list
// target-major, holding each target's six accumulators (velocity and
// dalpha/dt) in registers across the source stream: the Go loops
// there are the definition, and on amd64 with AVX2
// (kernel_amd64.go/.s) the same arithmetic runs four targets per YMM
// register, bit for bit. Per-interaction arithmetic is Pairwise's,
// and every list entry counts once toward VortexPP.

// vList is the flat interaction list of one target group: source
// particles as SoA position and strength columns, plus the accepted
// cell monopoles. Storage is reused across reset calls.
type vList struct {
	sx, sy, sz    []float64
	sax, say, saz []float64
	cells         []cellMoment
}

func (l *vList) reset() {
	l.sx, l.sy, l.sz = l.sx[:0], l.sy[:0], l.sz[:0]
	l.sax, l.say, l.saz = l.sax[:0], l.say[:0], l.saz[:0]
	l.cells = l.cells[:0]
}

func (l *vList) addBodies(pos, alpha []vec.V3) {
	at, n := len(l.sx), len(pos)
	for _, col := range [...]*[]float64{&l.sx, &l.sy, &l.sz, &l.sax, &l.say, &l.saz} {
		*col = slices.Grow(*col, n)[:at+n]
	}
	sx, sy, sz, sax, say, saz := l.sx[at:], l.sy[at:], l.sz[at:], l.sax[at:], l.say[at:], l.saz[at:]
	for i, p := range pos {
		sx[i], sy[i], sz[i] = p.X, p.Y, p.Z
		sax[i], say[i], saz[i] = alpha[i].X, alpha[i].Y, alpha[i].Z
	}
}

// vTargets is the reusable SoA target block: positions, strengths,
// and the velocity / dalpha accumulators.
type vTargets struct {
	x, y, z    []float64
	ax, ay, az []float64
	ux, uy, uz []float64
	dx, dy, dz []float64
}

func growV(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// load gathers a group and zeroes the accumulators.
func (t *vTargets) load(pos, alpha []vec.V3) {
	n := len(pos)
	t.x, t.y, t.z = growV(t.x, n), growV(t.y, n), growV(t.z, n)
	t.ax, t.ay, t.az = growV(t.ax, n), growV(t.ay, n), growV(t.az, n)
	t.ux, t.uy, t.uz = growV(t.ux, n), growV(t.uy, n), growV(t.uz, n)
	t.dx, t.dy, t.dz = growV(t.dx, n), growV(t.dy, n), growV(t.dz, n)
	for i := range pos {
		t.x[i], t.y[i], t.z[i] = pos[i].X, pos[i].Y, pos[i].Z
		t.ax[i], t.ay[i], t.az[i] = alpha[i].X, alpha[i].Y, alpha[i].Z
		t.ux[i], t.uy[i], t.uz[i] = 0, 0, 0
		t.dx[i], t.dy[i], t.dz[i] = 0, 0, 0
	}
}

// store scatters the accumulators, overwriting vel and dAlpha.
func (t *vTargets) store(vel, dAlpha []vec.V3) {
	for i := range vel {
		vel[i] = vec.V3{X: t.ux[i], Y: t.uy[i], Z: t.uz[i]}
		dAlpha[i] = vec.V3{X: t.dx[i], Y: t.dy[i], Z: t.dz[i]}
	}
}
