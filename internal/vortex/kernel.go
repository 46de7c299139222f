// The vortex interaction kernels, evalVelPP and evalVelMono, defined
// as the Go loops below: for each target its six running sums
// (velocity and dalpha/dt) carried across the whole list in list
// order, d = math.Sqrt(r2 + s2) on the hardware's correctly rounded
// square root and two correctly rounded divides per interaction. On
// amd64 with AVX2 (kernel_amd64.go/.s) the same loops run with four
// targets in the four lanes of a YMM register and each source
// broadcast to all of them, using only lane-wise
// subtract/multiply/add/sqrt/divide in the order these loops write, so
// every lane executes exactly the scalar sequence below and a test
// holds it to that bit for bit (TestVortexKernelAsmMatchesGo). The
// particle loop's r2 == 0 skip becomes a per-lane mask there: a masked
// lane's sums are kept as they were, not added a zero. Nothing selects
// a path but grav's CPU probe; without AVX2, or off amd64
// (kernel_noasm.go), these loops are the production path.
package vortex

import "math"

// evalVelPPGo applies every source particle of the list to every
// target. Coincident pairs (r2 == 0, the group's own bodies against
// themselves, or remesh duplicates) are skipped, and still count
// toward VortexPP. Re-slicing the columns to one shared length hands
// the prove pass the bounds, so the loops are check-free
// (scripts/bce.sh). Returns the interaction count.
func evalVelPPGo(t *vTargets, l *vList, s2 float64) uint64 {
	n := len(l.sx)
	sx, sy, sz := l.sx, l.sy[:n], l.sz[:n]
	sax, say, saz := l.sax[:n], l.say[:n], l.saz[:n]
	nt := len(t.x)
	tx, ty, tz := t.x, t.y[:nt], t.z[:nt]
	tax, tay, taz := t.ax[:nt], t.ay[:nt], t.az[:nt]
	oux, ouy, ouz := t.ux[:nt], t.uy[:nt], t.uz[:nt]
	odx, ody, odz := t.dx[:nt], t.dy[:nt], t.dz[:nt]
	for p := range tx {
		xp, yp, zp := tx[p], ty[p], tz[p]
		apx, apy, apz := tax[p], tay[p], taz[p]
		ux, uy, uz := oux[p], ouy[p], ouz[p]
		dax, day, daz := odx[p], ody[p], odz[p]
		for q := range sx {
			rx := xp - sx[q]
			ry := yp - sy[q]
			rz := zp - sz[q]
			r2 := rx*rx + ry*ry + rz*rz
			if r2 == 0 {
				continue // coincident particle (self during remesh)
			}
			aqx, aqy, aqz := sax[q], say[q], saz[q]
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
		oux[p], ouy[p], ouz[p] = ux, uy, uz
		odx[p], ody[p], odz[p] = dax, day, daz
	}
	return uint64(nt) * uint64(n)
}

// evalVelMonoGo applies every accepted cell monopole to every target
// with the particle kernel's sigma regularization: a single-body cell
// then reproduces the body-body interaction exactly, which matters
// because force-split parallel trees contain deep single-body cells
// whose critical radii are far smaller than the core size (the same
// pitfall as softened gravity vs bare multipoles). There is no r2 == 0
// skip: a centroid on a target is an ordinary, regularized term.
// Returns the interaction count.
func evalVelMonoGo(t *vTargets, cells []cellMoment, s2 float64) uint64 {
	nt := len(t.x)
	tx, ty, tz := t.x, t.y[:nt], t.z[:nt]
	tax, tay, taz := t.ax[:nt], t.ay[:nt], t.az[:nt]
	oux, ouy, ouz := t.ux[:nt], t.uy[:nt], t.uz[:nt]
	odx, ody, odz := t.dx[:nt], t.dy[:nt], t.dz[:nt]
	for p := range tx {
		xp, yp, zp := tx[p], ty[p], tz[p]
		apx, apy, apz := tax[p], tay[p], taz[p]
		ux, uy, uz := oux[p], ouy[p], ouz[p]
		dax, day, daz := odx[p], ody[p], odz[p]
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
		oux[p], ouy[p], ouz[p] = ux, uy, uz
		odx[p], ody[p], odz[p] = dax, day, daz
	}
	return uint64(nt) * uint64(len(cells))
}
