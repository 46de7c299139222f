// Package sph implements smoothed particle hydrodynamics on top of the
// same hashed oct-tree as gravity and the vortex method -- the paper's
// "portable parallel particle program" point: SPH was "implemented
// with 3000 lines interfaced to exactly the same library".
//
// The implementation is the standard compressible SPH of Monaghan:
// cubic-spline kernel, density by summation, symmetric pressure
// forces with artificial viscosity, and an isothermal or ideal-gas
// equation of state. Neighbor finding is a range query over the
// oct-tree (hotengine.RangeQuery), so the cost per step is O(N log N);
// self-gravity is gravity's own pass, parallel.Pass.
package sph

import (
	"math"

	"repro/internal/keys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// W returns the 3-D cubic spline kernel W(r, h), normalized so that
// its integral over R^3 is 1. Support radius is 2h.
func W(r, h float64) float64 { return w(r, h, 1/(math.Pi*h*h*h)) }

// w is W with its normalization n = 1/(pi h^3) passed in, so a loop
// over one target's neighbours computes it once.
func w(r, h, n float64) float64 {
	q := r / h
	switch {
	case q < 1:
		return n * (1 - 1.5*q*q + 0.75*q*q*q)
	case q < 2:
		d := 2 - q
		return n * 0.25 * d * d * d
	default:
		return 0
	}
}

// GradW returns the gradient of the kernel with respect to r_i, where
// rij = r_i - r_j (a vector of magnitude r).
func GradW(rij vec.V3, h float64) vec.V3 { return gradW(rij, rij.Norm(), h) }

// gradW is GradW given r = rij.Norm(), which a pair loop has already
// taken.
func gradW(rij vec.V3, r, h float64) vec.V3 {
	if r == 0 {
		return vec.V3{}
	}
	q := r / h
	n := 1 / (math.Pi * h * h * h * h)
	var dw float64
	switch {
	case q < 1:
		dw = n * (-3*q + 2.25*q*q)
	case q < 2:
		d := 2 - q
		dw = -n * 0.75 * d * d
	default:
		return vec.V3{}
	}
	return rij.Scale(dw / r)
}

// sqBounds brackets r for a test made on a squared distance: for every
// float64 d2, d2 <= near implies math.Sqrt(d2) <= r and d2 > far
// implies math.Sqrt(d2) > r, so only d2 in (near, far] needs the
// square root to be compared with r exactly. The pair loops and the
// gatherer decide everything outside that window without a root and
// everything inside it with the exact test, so each decision is the
// unsquared test's.
//
// Why, for 2^-500 <= r <= 2^500 (r normal, r*r neither overflowing nor
// subnormal; u = 2^-53 is the unit roundoff): the rounded square root
// is monotone and correctly rounded, so fl(sqrt(d2)) <= r needs
// sqrt(d2) <= r + ulp(r)/2 <= r(1+u), i.e. d2 <= r^2 (1+u)^2 <
// r^2 (1 + 2^-51). But far = fl(fl(r*r)(1 + 2^-40)) >= r^2 (1-u)^2
// (1 + 2^-40) > r^2 (1 + 2^-41), so d2 > far rules that out. And
// near = fl(fl(r*r)(1 - 2^-40)) <= r^2 (1+u)^2 (1 - 2^-40) < r^2, so
// d2 <= near gives sqrt(d2) < r, and rounding cannot carry it past the
// representable r. Outside that range, or for a NaN r, every d2 takes
// the exact test (near = -1, far = +Inf).
func sqBounds(r float64) (near, far float64) {
	if !(r >= 0x1p-500 && r <= 0x1p500) {
		return -1, math.Inf(1)
	}
	rr := r * r
	return rr * (1 - 0x1p-40), rr * (1 + 0x1p-40)
}

// EOS selects the equation of state.
type EOS int

const (
	// Isothermal: P = c^2 rho.
	Isothermal EOS = iota
	// IdealGas: P = (gamma-1) rho u with fixed specific energy u.
	IdealGas
)

// Params configures an SPH evaluation.
type Params struct {
	EOS EOS
	// CS is the (isothermal) sound speed.
	CS float64
	// Gamma and U parameterize the ideal gas EOS.
	Gamma, U float64
	// AlphaVisc and BetaVisc are the Monaghan artificial viscosity
	// coefficients (typical 1.0 and 2.0; zero disables).
	AlphaVisc, BetaVisc float64
}

// pressure evaluates the EOS.
func (p *Params) pressure(rho float64) float64 {
	switch p.EOS {
	case Isothermal:
		return p.CS * p.CS * rho
	case IdealGas:
		return (p.Gamma - 1) * rho * p.U
	default:
		panic("sph: unknown EOS")
	}
}

func (p *Params) soundSpeed(rho float64) float64 {
	switch p.EOS {
	case Isothermal:
		return p.CS
	default:
		return math.Sqrt(p.Gamma * (p.Gamma - 1) * p.U)
	}
}

// Neighbors returns the indices (into the key-sorted system that tr
// was built over) of all bodies within radius r of x, found by
// pruning tree cells against the search sphere.
func Neighbors(tr *tree.Tree, x vec.V3, r float64, out []int32) []int32 {
	out = out[:0]
	stack := []keys.Key{keys.Root}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := tr.Cell(k)
		if c == nil || c.N == 0 {
			continue
		}
		center, size := tr.Domain.CellCenter(k)
		// Prune: the cell cube is entirely outside the sphere when the
		// center distance exceeds r plus the half-diagonal.
		halfDiag := size * math.Sqrt(3) / 2
		if center.Sub(x).Norm() > r+halfDiag {
			continue
		}
		if c.Leaf {
			for i := c.First; i < c.First+c.N; i++ {
				if tr.Sys.Pos[i].Sub(x).Norm() <= r {
					out = append(out, i)
				}
			}
			continue
		}
		for oct := 0; oct < 8; oct++ {
			if c.ChildMask&(1<<uint(oct)) != 0 {
				stack = append(stack, k.Child(oct))
			}
		}
	}
	return out
}
