package vortex

import (
	"math"

	"repro/internal/vec"
)

// Batched, structure-of-arrays evaluation for the vortex tree walk:
// the vector-valued twin of internal/grav's interaction-list path.
// The walk gathers accepted cell monopoles and leaf particles into a
// vList, and the eval* kernels sweep the whole list target-major,
// holding each target's six accumulators (velocity and dalpha/dt) in
// registers across the source stream. Per-interaction arithmetic is
// Pairwise's, and every list entry counts once toward VortexPP.

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
	for i := range pos {
		l.sx = append(l.sx, pos[i].X)
		l.sy = append(l.sy, pos[i].Y)
		l.sz = append(l.sz, pos[i].Z)
		l.sax = append(l.sax, alpha[i].X)
		l.say = append(l.say, alpha[i].Y)
		l.saz = append(l.saz, alpha[i].Z)
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

// evalVelPP applies every source particle of the list to every
// target. Coincident pairs (r2 == 0, the group's own bodies against
// themselves, or remesh duplicates) are skipped, and still count
// toward VortexPP. Returns the interaction count.
func evalVelPP(t *vTargets, l *vList, s2 float64) uint64 {
	for p := range t.x {
		xp, yp, zp := t.x[p], t.y[p], t.z[p]
		apx, apy, apz := t.ax[p], t.ay[p], t.az[p]
		ux, uy, uz := t.ux[p], t.uy[p], t.uz[p]
		dax, day, daz := t.dx[p], t.dy[p], t.dz[p]
		for q := range l.sx {
			rx := xp - l.sx[q]
			ry := yp - l.sy[q]
			rz := zp - l.sz[q]
			r2 := rx*rx + ry*ry + rz*rz
			if r2 == 0 {
				continue // coincident particle (self during remesh)
			}
			aqx, aqy, aqz := l.sax[q], l.say[q], l.saz[q]
			d2 := r2 + s2
			d := math.Sqrt(d2)
			inv5 := 1 / (d2 * d2 * d)
			g := (r2 + 2.5*s2) * inv5
			gp := -3 * (r2 + 3.5*s2) * inv5 / d2
			// rxa = r x alpha_q
			rxax := ry*aqz - rz*aqy
			rxay := rz*aqx - rx*aqz
			rxaz := rx*aqy - ry*aqx
			fg := fourPiInv * g
			ux -= rxax * fg
			uy -= rxay * fg
			uz -= rxaz * fg
			// alpha_p x alpha_q
			cxx := apy*aqz - apz*aqy
			cxy := apz*aqx - apx*aqz
			cxz := apx*aqy - apy*aqx
			dax -= cxx * fg
			day -= cxy * fg
			daz -= cxz * fg
			fs := fourPiInv * gp * (apx*rx + apy*ry + apz*rz)
			dax -= rxax * fs
			day -= rxay * fs
			daz -= rxaz * fs
		}
		t.ux[p], t.uy[p], t.uz[p] = ux, uy, uz
		t.dx[p], t.dy[p], t.dz[p] = dax, day, daz
	}
	return uint64(len(t.x)) * uint64(len(l.sx))
}

// evalVelMono applies every accepted cell monopole to every target
// with the particle kernel's sigma regularization: a single-body cell
// then reproduces the body-body interaction exactly, which matters
// because force-split parallel trees contain deep single-body cells
// whose critical radii are far smaller than the core size (the same
// pitfall as softened gravity vs bare multipoles).
// Returns the interaction count.
func evalVelMono(t *vTargets, cells []cellMoment, s2 float64) uint64 {
	for p := range t.x {
		xp, yp, zp := t.x[p], t.y[p], t.z[p]
		apx, apy, apz := t.ax[p], t.ay[p], t.az[p]
		ux, uy, uz := t.ux[p], t.uy[p], t.uz[p]
		dax, day, daz := t.dx[p], t.dy[p], t.dz[p]
		for c := range cells {
			m := &cells[c]
			rx := xp - m.Centroid.X
			ry := yp - m.Centroid.Y
			rz := zp - m.Centroid.Z
			r2 := rx*rx + ry*ry + rz*rz
			d2 := r2 + s2
			d := math.Sqrt(d2)
			inv5 := 1 / (d2 * d2 * d)
			g := (r2 + 2.5*s2) * inv5
			gp := -3 * (r2 + 3.5*s2) * inv5 / d2
			aqx, aqy, aqz := m.ASum.X, m.ASum.Y, m.ASum.Z
			rxax := ry*aqz - rz*aqy
			rxay := rz*aqx - rx*aqz
			rxaz := rx*aqy - ry*aqx
			fg := fourPiInv * g
			ux -= rxax * fg
			uy -= rxay * fg
			uz -= rxaz * fg
			cxx := apy*aqz - apz*aqy
			cxy := apz*aqx - apx*aqz
			cxz := apx*aqy - apy*aqx
			dax -= cxx * fg
			day -= cxy * fg
			daz -= cxz * fg
			fs := fourPiInv * gp * (apx*rx + apy*ry + apz*rz)
			dax -= rxax * fs
			day -= rxay * fs
			daz -= rxaz * fs
		}
		t.ux[p], t.uy[p], t.uz[p] = ux, uy, uz
		t.dx[p], t.dy[p], t.dz[p] = dax, day, daz
	}
	return uint64(len(t.x)) * uint64(len(cells))
}
