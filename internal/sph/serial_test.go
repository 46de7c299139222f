package sph

import (
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/keys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// The serial SPH evaluation: one Neighbors query per particle over a
// tree of the whole system. The one-rank engine (NewParallel through
// runner.Run) is the production path; this is the reference the
// engine's tests hold it to (TestParallelMatchesSerial and friends).

// Density fills sys.Rho by kernel summation over neighbors within 2h
// (per-particle smoothing lengths from sys.H). The system must be
// key-sorted with a tree built over it.
func Density(tr *tree.Tree, p *Params) diag.Counters {
	var ctr diag.Counters
	sys := tr.Sys
	var nb []int32
	for i := 0; i < sys.Len(); i++ {
		h := sys.H[i]
		nb = Neighbors(tr, sys.Pos[i], 2*h, nb)
		rho := 0.0
		for _, j := range nb {
			rho += sys.Mass[j] * W(sys.Pos[i].Sub(sys.Pos[j]).Norm(), h)
		}
		sys.Rho[i] = rho
		ctr.SPHPairs += uint64(len(nb))
	}
	return ctr
}

// Forces fills sys.Acc with the symmetric SPH pressure force plus
// Monaghan artificial viscosity. Density must be current. Gravity is
// not included here (combine with the gravity driver when needed).
func Forces(tr *tree.Tree, p *Params) diag.Counters {
	var ctr diag.Counters
	sys := tr.Sys
	var nb []int32
	for i := 0; i < sys.Len(); i++ {
		hi := sys.H[i]
		Pi := p.pressure(sys.Rho[i])
		var acc vec.V3
		nb = Neighbors(tr, sys.Pos[i], 2*hi, nb)
		for _, j := range nb {
			if int(j) == i {
				continue
			}
			rij := sys.Pos[i].Sub(sys.Pos[int(j)])
			hbar := 0.5 * (hi + sys.H[j])
			Pj := p.pressure(sys.Rho[j])
			term := Pi/(sys.Rho[i]*sys.Rho[i]) + Pj/(sys.Rho[j]*sys.Rho[j])
			// Artificial viscosity on approaching pairs.
			if p.AlphaVisc > 0 {
				vij := sys.Vel[i].Sub(sys.Vel[int(j)])
				vr := vij.Dot(rij)
				if vr < 0 {
					mu := hbar * vr / (rij.Norm2() + 0.01*hbar*hbar)
					rhob := 0.5 * (sys.Rho[i] + sys.Rho[j])
					cbar := 0.5 * (p.soundSpeed(sys.Rho[i]) + p.soundSpeed(sys.Rho[j]))
					term += (-p.AlphaVisc*cbar*mu + p.BetaVisc*mu*mu) / rhob
				}
			}
			acc = acc.Sub(GradW(rij, hbar).Scale(sys.Mass[j] * term))
			ctr.SPHPairs++
		}
		sys.Acc[i] = acc
	}
	return ctr
}

// Step runs one full SPH evaluation (tree build, density, forces) and
// returns the tree for reuse. mac and bucket follow the tree defaults
// when zero-valued.
func Step(sys *core.System, p *Params, bucket int) (*tree.Tree, diag.Counters) {
	sys.EnableSPH()
	sys.EnableDynamics()
	d := keys.NewDomain(sys.Pos)
	sys.AssignKeys(d)
	sys.SortByKey()
	tr := tree.Build(sys, d, grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.7, Quad: false}, bucket)
	ctr := Density(tr, p)
	ctr2 := Forces(tr, p)
	ctr.Add(ctr2)
	return tr, ctr
}
