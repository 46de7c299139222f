// Package vortex implements the vortex particle method of the paper's
// fluid dynamics result (the two-ring fusion computed on Hyglac):
// Lagrangian particles carrying vector-valued vorticity strengths
// alpha, advected by the regularized Biot-Savart velocity they induce,
// with vorticity stretching evolving the strengths, and periodic
// "remeshing" onto a regular lattice to maintain the core-overlap
// condition (which is what grew the paper's run from 57k to 360k
// particles).
//
// The regularization is the high-order algebraic kernel of
// Winckelmans & Leonard:
//
//	u(x)     = -(1/4pi) sum_q g(r) r x alpha_q,  r = x - x_q
//	g(r)     = (|r|^2 + 2.5 s^2) / (|r|^2 + s^2)^{5/2}
//	dalpha_p = -(1/4pi) sum_q [ g (alpha_p x alpha_q)
//	           + (g'/|r|)(alpha_p . r)(r x alpha_q) ] dt
//	g'/|r|   = -3 (|r|^2 + 3.5 s^2) / (|r|^2 + s^2)^{7/2}
//
// (classical stretching scheme). Far fields are evaluated through the
// same hashed oct-tree as gravity, with vector-valued cell moments:
// the paper's point that one treecode library serves gravity, vortex
// dynamics and SPH alike. The walk is the engine's MAC walk, as
// gravity's is; the vortex visitor only takes the interactions.
package vortex

import (
	"math"

	"repro/internal/vec"
)

const fourPiInv = 1 / (4 * math.Pi)

// Pairwise evaluates velocities and strength derivatives by direct
// summation over all particle pairs: the O(N^2) reference. vel and
// dAlpha are overwritten. Returns the interaction count.
func Pairwise(pos, alpha []vec.V3, sigma float64, vel, dAlpha []vec.V3) uint64 {
	n := len(pos)
	s2 := sigma * sigma
	for p := 0; p < n; p++ {
		var u, da vec.V3
		ap := alpha[p]
		for q := 0; q < n; q++ {
			if q == p {
				continue
			}
			r := pos[p].Sub(pos[q])
			r2 := r.Norm2()
			d2 := r2 + s2
			d := math.Sqrt(d2)
			inv5 := 1 / (d2 * d2 * d)
			g := (r2 + 2.5*s2) * inv5
			gp := -3 * (r2 + 3.5*s2) * inv5 / d2
			rxa := r.Cross(alpha[q])
			u = u.Sub(rxa.Scale(fourPiInv * g))
			da = da.Sub(ap.Cross(alpha[q]).Scale(fourPiInv * g))
			da = da.Sub(rxa.Scale(fourPiInv * gp * ap.Dot(r)))
		}
		vel[p] = u
		dAlpha[p] = da
	}
	if n == 0 {
		return 0
	}
	return uint64(n) * uint64(n-1)
}

// cellMoment accumulates a far-field monopole for a cluster: total
// strength and strength-weighted centroid (falling back to the
// geometric mean position for clusters whose |alpha| sums to ~0).
type cellMoment struct {
	ASum     vec.V3
	Centroid vec.V3
}

// Diagnostics of a vortex particle field.

// TotalStrength returns sum(alpha): the total vorticity integral,
// conserved by remeshing exactly and by the dynamics approximately.
func TotalStrength(alpha []vec.V3) vec.V3 {
	var s vec.V3
	for _, a := range alpha {
		s = s.Add(a)
	}
	return s
}

// LinearImpulse returns I = (1/2) sum x cross alpha, the hydrodynamic
// impulse, an invariant of inviscid vortex dynamics.
func LinearImpulse(pos, alpha []vec.V3) vec.V3 {
	var s vec.V3
	for i := range pos {
		s = s.Add(pos[i].Cross(alpha[i]))
	}
	return s.Scale(0.5)
}

// Centroid returns the |alpha|-weighted mean position (tracks ring
// translation).
func Centroid(pos, alpha []vec.V3) vec.V3 {
	var c vec.V3
	var w float64
	for i := range pos {
		a := alpha[i].Norm()
		c = c.Add(pos[i].Scale(a))
		w += a
	}
	if w == 0 {
		return vec.V3{}
	}
	return c.Scale(1 / w)
}

// MaxVelocity returns the largest |vel|, used for CFL-style timestep
// control in the drivers.
func MaxVelocity(vel []vec.V3) float64 {
	m := 0.0
	for i := range vel {
		if v := vel[i].Norm(); v > m {
			m = v
		}
	}
	return m
}

// KineticEnergy returns the kinetic energy of the induced flow in the
// particle representation, E = (1/2) sum_p u_p . (x_p x alpha_p)
// (Saffman's impulse form, valid for localized vorticity). Together
// with LinearImpulse it tracks the quality of an inviscid run.
func KineticEnergy(pos, alpha, vel []vec.V3) float64 {
	var e float64
	for i := range pos {
		e += vel[i].Dot(pos[i].Cross(alpha[i]))
	}
	return 0.5 * e
}

// Enstrophy returns sum |alpha|^2 / volume-free proxy: the particle
// enstrophy integral used to monitor stretching growth.
func Enstrophy(alpha []vec.V3) float64 {
	var s float64
	for i := range alpha {
		s += alpha[i].Norm2()
	}
	return s
}
