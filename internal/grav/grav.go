// Package grav implements the gravitational kernels of the treecode:
// the softened body-body interaction, the body-cell multipole
// interaction through quadrupole order, multipole moment construction
// and translation, and the two multipole acceptance criteria
// (Barnes-Hut opening angle and the Salmon-Warren absolute error bound
// from "Skeletons from the treecode closet").
//
// There is one production kernel set: EvalPP/EvalSelf/EvalM2P
// (kernel.go) evaluate an InteractionList (soa.go) on a Targets block
// as plain Go loops or, on amd64, the same arithmetic eight targets at
// a time with AVX-512 and four with AVX2 and FMA. Like the paper's,
// EvalPP and EvalM2P take the reciprocal square root from multiplies
// and adds (a seed and Newton steps on fused multiply-adds; the
// divider only for r2 out of range); EvalSelf, a sliver of the work,
// stays on the hardware square root and divide. The treecode and the
// O(N^2) ring (internal/direct) both run them. AccelAt (body sources)
// and M2P (one multipole) in this file are the float64 references the
// tests hold those kernels to, both on 1/math.Sqrt.
//
// Units: G = 1 throughout. The Plummer softening eps2 enters as
// r^2 -> r^2 + eps^2 in the body-body kernel.
package grav

import (
	"math"

	"repro/internal/vec"
)

// Multipole is the moment set carried by every tree cell: total mass,
// center of mass, traceless quadrupole about the center of mass, and
// the two scalars the Salmon-Warren error bound needs.
type Multipole struct {
	M   float64
	COM vec.V3
	// Q is the traceless quadrupole Q_ij = sum m (3 y_i y_j - y^2 d_ij)
	// with y measured from COM.
	Q vec.Sym3
	// B2 is sum m |y|^2, the second absolute moment.
	B2 float64
	// Bmax bounds the distance from COM to the farthest body.
	Bmax float64
}

// FromBodies computes the exact moments of a body set. One body's are
// exactly a monopole at its position: through sum(m x)/m its centre of
// mass would round off it, and the quadrupole, B2 and Bmax of that
// offset, ~1e-34 at unit scale, would drive the float32 quadrupole
// kernel's products into subnormals, each a microcode assist.
func FromBodies(pos []vec.V3, mass []float64) Multipole {
	if len(pos) == 1 {
		return Multipole{M: mass[0], COM: pos[0]}
	}
	var mp Multipole
	for i := range pos {
		mp.M += mass[i]
		mp.COM = mp.COM.Add(pos[i].Scale(mass[i]))
	}
	if mp.M > 0 {
		mp.COM = mp.COM.Scale(1 / mp.M)
	}
	for i := range pos {
		y := pos[i].Sub(mp.COM)
		y2 := y.Norm2()
		q := vec.Outer(y, 3*mass[i])
		q.XX -= mass[i] * y2
		q.YY -= mass[i] * y2
		q.ZZ -= mass[i] * y2
		mp.Q = mp.Q.Add(q)
		mp.B2 += mass[i] * y2
		if d := math.Sqrt(y2); d > mp.Bmax {
			mp.Bmax = d
		}
	}
	return mp
}

// Combine merges child moments into a parent via the parallel-axis
// translations. Bmax is an upper bound (shift + child Bmax), which is
// what the error-bound MAC needs.
func Combine(children []Multipole) Multipole {
	var mp Multipole
	for i := range children {
		mp.M += children[i].M
		mp.COM = mp.COM.Add(children[i].COM.Scale(children[i].M))
	}
	if mp.M > 0 {
		mp.COM = mp.COM.Scale(1 / mp.M)
	}
	for i := range children {
		c := &children[i]
		s := c.COM.Sub(mp.COM)
		s2 := s.Norm2()
		q := vec.Outer(s, 3*c.M)
		q.XX -= c.M * s2
		q.YY -= c.M * s2
		q.ZZ -= c.M * s2
		mp.Q = mp.Q.Add(c.Q).Add(q)
		mp.B2 += c.B2 + c.M*s2
		if b := math.Sqrt(s2) + c.Bmax; b > mp.Bmax {
			mp.Bmax = b
		}
	}
	return mp
}

// M2P accumulates the multipole field of one cell on the targets in
// float64: the reference EvalM2P is held to. If quad is true the traceless quadrupole term is included:
//
//	phi  = -M/r - (d.Q.d)/(2 r^5)
//	a    = -M d/r^3 + Q d/r^5 - (5/2)(d.Q.d) d/r^7
//
// with d = x_target - COM and r^2 Plummer-softened by eps2 throughout
// (so a single-body cell reproduces the body-body kernel exactly --
// without this, a point-mass cell accepted at distances comparable to
// the softening length would disagree with the softened direct sum).
// Returns the interaction count (one per target body).
func M2P(tpos []vec.V3, acc []vec.V3, pot []float64, mp *Multipole, quad bool, eps2 float64) uint64 {
	m := mp.M
	cx, cy, cz := mp.COM.X, mp.COM.Y, mp.COM.Z
	for i := range tpos {
		dx := tpos[i].X - cx
		dy := tpos[i].Y - cy
		dz := tpos[i].Z - cz
		r2 := dx*dx + dy*dy + dz*dz + eps2
		rinv := 1 / math.Sqrt(r2)
		rinv2 := rinv * rinv
		rinv3 := rinv * rinv2
		mono := m * rinv3
		ax := -mono * dx
		ay := -mono * dy
		az := -mono * dz
		p := -m * rinv
		if quad {
			q := &mp.Q
			qdx := q.XX*dx + q.XY*dy + q.XZ*dz
			qdy := q.XY*dx + q.YY*dy + q.YZ*dz
			qdz := q.XZ*dx + q.YZ*dy + q.ZZ*dz
			dqd := dx*qdx + dy*qdy + dz*qdz
			rinv5 := rinv3 * rinv2
			rinv7 := rinv5 * rinv2
			c := 2.5 * dqd * rinv7
			ax += qdx*rinv5 - c*dx
			ay += qdy*rinv5 - c*dy
			az += qdz*rinv5 - c*dz
			p -= 0.5 * dqd * rinv5
		}
		acc[i] = acc[i].Add(vec.V3{X: ax, Y: ay, Z: az})
		pot[i] += p
	}
	return uint64(len(tpos))
}

// AccelAt returns the softened acceleration and potential at point x
// due to all bodies, in float64, skipping a body at r2 = 0: the exact
// body-body reference (direct.Serial sums it over every body).
func AccelAt(x vec.V3, pos []vec.V3, mass []float64, eps2 float64) (vec.V3, float64) {
	var acc vec.V3
	pot := 0.0
	for j := range pos {
		d := pos[j].Sub(x)
		r2 := d.Norm2() + eps2
		if r2 == 0 {
			continue
		}
		rinv := 1 / math.Sqrt(r2)
		acc = acc.Add(d.Scale(mass[j] * rinv * rinv * rinv))
		pot -= mass[j] * rinv
	}
	return acc, pot
}

// MAC selects the multipole acceptance criterion.
type MAC int

const (
	// MACBarnesHut opens a cell when size/d > theta, with the
	// center-of-mass offset folded in for safety.
	MACBarnesHut MAC = iota
	// MACSalmonWarren opens a cell when the analytic worst-case
	// acceleration error of its truncated expansion exceeds AccelTol.
	MACSalmonWarren
)

// MACParams configures acceptance.
type MACParams struct {
	Kind MAC
	// Theta is the Barnes-Hut opening angle (typical 0.5-1.0).
	Theta float64
	// AccelTol is the Salmon-Warren absolute acceleration error bound
	// per interaction.
	AccelTol float64
	// Quad selects monopole+quadrupole expansions (true) or monopole
	// only (false); it changes both the kernel and the error bound.
	Quad bool
}

// DefaultMAC matches the paper's production setting: quadrupole
// expansions with an absolute error bound giving ~1e-3 RMS force
// accuracy for a system with total mass and size of order unity.
// AccelTol is an absolute acceleration error, so callers should scale
// it to their problem (the simulation drivers set it to a fraction of
// the RMS acceleration of the previous step, as the production code
// did).
func DefaultMAC() MACParams {
	return MACParams{Kind: MACSalmonWarren, AccelTol: 1e-3, Quad: true, Theta: 0.7}
}

// RCrit returns the critical radius of a cell: the cell's multipole
// may be used for any target farther than RCrit from the COM. size is
// the cell edge length, off the |COM - geometric center| offset.
//
// Barnes-Hut: rcrit = size/theta + off.
//
// Salmon-Warren: solve the truncation error bound for d. With
// B_n = sum m|y|^n and b = Bmax, the bound for an expansion carried
// through order p (dipole vanishes about the COM) is
//
//	da <= (n+1) B_n / (d-b)^(n+2),  n = p+1
//
// monopole (p=1 effective): da <= 3 B2 / (d-b)^4
// quadrupole (p=2, B3 <= b*B2): da <= 4 b B2 / (d-b)^5
func RCrit(mp *Multipole, size, off float64, p MACParams) float64 {
	switch p.Kind {
	case MACBarnesHut:
		return size/p.Theta + off
	case MACSalmonWarren:
		if mp.B2 == 0 {
			return 0 // single body or point mass: expansion exact
		}
		var d float64
		if p.Quad {
			d = math.Pow(4*mp.Bmax*mp.B2/p.AccelTol, 1.0/5.0)
		} else {
			d = math.Pow(3*mp.B2/p.AccelTol, 0.25)
		}
		return mp.Bmax + d
	default:
		panic("grav: unknown MAC kind")
	}
}
