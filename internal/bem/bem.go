package bem

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/parallel"
	"repro/internal/runner"
	"repro/internal/vec"
)

// Flow solves the exterior Neumann problem for potential flow past
// the meshed body: constant source strengths sigma on each panel such
// that the total normal velocity vanishes at every collocation point,
//
//	sigma_i/2 + sum_{j != i} sigma_j A_j (v_ij . n_i) = -Uinf . n_i
//
// with v_ij the unit point-source velocity (1/4pi) r/|r|^3 evaluated
// between centroids (the far-field panel approximation; the self term
// sigma/2 is the flat-panel limit). The system is strongly diagonally
// dominant and solved by damped Richardson iteration, with the
// off-diagonal sums computed either directly or through the gravity
// tree (a source panel IS a gravity monopole up to sign).
type Flow struct {
	Mesh  *Mesh
	Uinf  vec.V3
	Sigma []float64
	// Residual is the final max normal velocity after Solve.
	Residual float64
	// Counters tallies the induced-velocity interactions.
	Counters diag.Counters

	// tree is the one-rank gravity engine of the tree path, built for
	// opening angle theta.
	tree  *parallel.Engine
	theta float64
}

// NewFlow prepares a solver for a uniform onset flow.
func NewFlow(m *Mesh, uinf vec.V3) *Flow {
	return &Flow{Mesh: m, Uinf: uinf, Sigma: make([]float64, len(m.Panels))}
}

// inducedVelocities fills vel[i] with the velocity at panel i's
// centroid induced by all other panels' sources (excluding the self
// term). useTree selects the tree-accelerated evaluation.
func (f *Flow) inducedVelocities(vel []vec.V3, useTree bool, theta float64) {
	n := len(f.Mesh.Panels)
	if !useTree {
		const fourPiInv = 1 / (4 * math.Pi)
		for i := 0; i < n; i++ {
			var u vec.V3
			ci := f.Mesh.Panels[i].Centroid
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				r := ci.Sub(f.Mesh.Panels[j].Centroid)
				r2 := r.Norm2()
				inv := 1 / (r2 * math.Sqrt(r2))
				u = u.Add(r.Scale(fourPiInv * f.Sigma[j] * f.Mesh.Panels[j].Area * inv))
				f.Counters.PP++
			}
			vel[i] = u
		}
		return
	}
	// Tree path: bodies are panel centroids with "mass"
	// sigma_j * A_j; gravity computes a = sum m (x_j - x) / r^3, so
	// the source velocity is -a/(4 pi). Signed masses require the
	// geometric Barnes-Hut MAC. The centroids never move, so one
	// engine serves every sum at this theta: only the strengths are
	// refreshed, by panel ID, before each evaluation.
	var ctr diag.Counters
	if f.tree == nil || f.theta != theta {
		sys := core.New(n)
		for j := 0; j < n; j++ {
			sys.Pos[j] = f.Mesh.Panels[j].Centroid
			sys.Mass[j] = f.Sigma[j] * f.Mesh.Panels[j].Area
		}
		g := runner.Gravity{MAC: grav.MACParams{Kind: grav.MACBarnesHut, Theta: theta, Quad: true}, Bucket: 16}
		f.tree, ctr = g.Serial(sys)
		f.theta = theta
	} else {
		sys := f.tree.Sys
		for i, j := range sys.ID {
			sys.Mass[i] = f.Sigma[j] * f.Mesh.Panels[j].Area
		}
		ctr = f.tree.ComputeForces()
	}
	f.Counters.Add(ctr)
	const scale = -1 / (4 * math.Pi)
	sys := f.tree.Sys
	for i, j := range sys.ID {
		vel[j] = sys.Acc[i].Scale(scale)
	}
}

// Solve iterates until the no-penetration residual drops below tol or
// maxIter is hit, returning an error in the latter case. useTree
// selects tree-accelerated induced-velocity sums (theta ~ 0.4 keeps
// the panel quadrature error dominant).
func (f *Flow) Solve(tol float64, maxIter int, useTree bool, theta float64) error {
	n := len(f.Mesh.Panels)
	vel := make([]vec.V3, n)
	for iter := 0; iter < maxIter; iter++ {
		f.inducedVelocities(vel, useTree, theta)
		worst := 0.0
		for i := 0; i < n; i++ {
			p := f.Mesh.Panels[i]
			// Normal velocity with current strengths.
			vn := f.Uinf.Dot(p.Normal) + vel[i].Dot(p.Normal) + f.Sigma[i]/2
			if r := math.Abs(vn); r > worst {
				worst = r
			}
			// Damped Richardson update on the diagonal (1/2) term.
			f.Sigma[i] -= 1.6 * vn
		}
		f.Residual = worst
		if worst < tol {
			return nil
		}
	}
	return fmt.Errorf("bem: no convergence after %d iterations (residual %g)", maxIter, f.Residual)
}

// SurfaceVelocity returns the tangential flow speed at each panel
// (the normal component is zero by construction once solved).
func (f *Flow) SurfaceVelocity(useTree bool, theta float64) []float64 {
	n := len(f.Mesh.Panels)
	vel := make([]vec.V3, n)
	f.inducedVelocities(vel, useTree, theta)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		p := f.Mesh.Panels[i]
		u := f.Uinf.Add(vel[i])
		// Project off the normal (self term cancels the residual
		// normal component; tangential self contribution is zero for
		// a flat constant panel).
		ut := u.Sub(p.Normal.Scale(u.Dot(p.Normal)))
		out[i] = ut.Norm()
	}
	return out
}

// PressureCoefficient returns Cp = 1 - (u_t/Uinf)^2 per panel.
func (f *Flow) PressureCoefficient(useTree bool, theta float64) []float64 {
	ut := f.SurfaceVelocity(useTree, theta)
	u2 := f.Uinf.Norm2()
	out := make([]float64, len(ut))
	for i, v := range ut {
		out[i] = 1 - v*v/u2
	}
	return out
}

// SphereAnalyticSpeed returns the exact potential-flow surface speed
// for a unit sphere in unit onset flow at polar angle theta from the
// flow axis: (3/2) sin(theta).
func SphereAnalyticSpeed(cosTheta float64) float64 {
	s := 1 - cosTheta*cosTheta
	if s < 0 {
		s = 0
	}
	return 1.5 * math.Sqrt(s)
}
