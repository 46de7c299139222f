package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/keys"
	"repro/internal/vec"
)

// sorted prepares an IC system for tree building.
func sorted(sys *core.System) (*core.System, keys.Domain) {
	sys.EnableDynamics()
	d := keys.NewDomain(sys.Pos)
	sys.AssignKeys(d)
	sys.SortByKey()
	return sys, d
}

func cosmoCloud(t *testing.T) (*core.System, keys.Domain) {
	r, err := cosmo.NewRealization(cosmo.Params{
		Grid: 16, Box: 1, DeltaRMS: 0.2, ShapeGamma: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := r.ICs()
	return sorted(sys)
}

// accClose checks the batched result against the fused one to the
// float32 kernels' round-off, grav.RoundOff relative to the largest
// acceleration (the fused walk sums in float64 on the Karp kernels).
func accClose(t *testing.T, tag string, acc, ref []vec.V3, pot, refPot []float64) {
	t.Helper()
	var scale float64
	for i := range ref {
		if n := ref[i].Norm(); n > scale {
			scale = n
		}
	}
	tol := grav.RoundOff * (scale + 1)
	for i := range ref {
		if acc[i].Sub(ref[i]).Norm() > tol || math.Abs(pot[i]-refPot[i]) > tol {
			t.Fatalf("%s: body %d differs: %v/%g vs %v/%g", tag, i, acc[i], pot[i], ref[i], refPot[i])
		}
	}
}

// The list-based two-phase evaluation must match the fused walk on
// realistic ICs, monopole and quadrupole, with
// byte-identical interaction counts: over the tree's sink cells, and
// over its leaves as groups (the ablation's grouping).
func TestGravityMatchesFused(t *testing.T) {
	macs := map[string]grav.MACParams{
		"bh-mono": {Kind: grav.MACBarnesHut, Theta: 0.7, Quad: false},
		"bh-quad": {Kind: grav.MACBarnesHut, Theta: 0.7, Quad: true},
		"sw-quad": {Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true},
	}
	ics := map[string]func() (*core.System, keys.Domain){
		"plummer": func() (*core.System, keys.Domain) { return sorted(ic.Plummer(3000, 1.0, 5)) },
		"cosmo":   func() (*core.System, keys.Domain) { return cosmoCloud(t) },
	}
	const eps2 = 1e-6
	for icName, mk := range ics {
		sys, d := mk()
		for macName, mac := range macs {
			tr := Build(sys, d, mac, 16)
			groupings := map[string][]keys.Key{"sinks": tr.Groups, "leaves": LeafGroups(tr)}
			for grouping, groups := range groupings {
				tag := icName + "/" + macName + "/" + grouping
				tr.Groups = groups
				ctrFused := tr.GravityFused(eps2)
				refAcc := append(sys.Acc[:0:0], sys.Acc...)
				refPot := append(sys.Pot[:0:0], sys.Pot...)
				refWork := append(sys.Work[:0:0], sys.Work...)

				ctr := tr.Gravity(eps2)
				if ctr.PP != ctrFused.PP || ctr.PC != ctrFused.PC || ctr.QuadPC != ctrFused.QuadPC {
					t.Fatalf("%s: counts differ: batched PP=%d PC=%d QuadPC=%d, fused PP=%d PC=%d QuadPC=%d",
						tag, ctr.PP, ctr.PC, ctr.QuadPC, ctrFused.PP, ctrFused.PC, ctrFused.QuadPC)
				}
				accClose(t, tag, sys.Acc, refAcc, sys.Pot, refPot)
				for i := range refWork {
					if sys.Work[i] != refWork[i] {
						t.Fatalf("%s: work weight %d differs", tag, i)
					}
				}
			}
		}
	}
}

// An InteractionList built from a tree walk must evaluate to the same
// forces, to the float32 kernels' round-off (grav.RoundOff), as
// replaying its entries through the float64 fused kernels one call at
// a time: the list is a faithful record of the walk's accepted
// interactions.
func TestListEvaluationMatchesPerEntryKernels(t *testing.T) {
	const eps2 = 1e-6
	f := func(seed int64, groupPick uint16, quad bool) bool {
		n := 200 + int(uint64(seed)%300)
		sys, d := cloud(n, seed)
		mac := grav.DefaultMAC()
		mac.Quad = quad
		tr := Build(sys, d, mac, 16)
		gk := tr.Groups[int(groupPick)%len(tr.Groups)]
		g := tr.Cell(gk)
		gpos := sys.Pos[g.First : g.First+g.N]
		gmass := sys.Mass[g.First : g.First+g.N]

		var w Walker
		var ctr diag.Counters
		if m := w.Walk(tr, gk, gpos, &ctr); m != nil {
			return false
		}
		acc := make([]vec.V3, len(gpos))
		pot := make([]float64, len(gpos))
		w.Evaluate(gpos, gmass, acc, pot, eps2, quad, &ctr)

		// Replay the list entry by entry through the fused kernels.
		ref := make([]vec.V3, len(gpos))
		refPot := make([]float64, len(gpos))
		for c := 0; c < w.List.NCells(); c++ {
			mp := w.List.Cell(c)
			grav.M2P(gpos, ref, refPot, &mp, quad, eps2)
		}
		var spos [1]vec.V3
		var smass [1]float64
		for j := 0; j < w.List.NSources(); j++ {
			spos[0], smass[0] = w.List.Source(j)
			grav.PPTile(gpos, ref, refPot, spos[:], smass[:], eps2)
		}
		if w.List.Self {
			grav.PPSelf(gpos, gmass, ref, refPot, eps2)
		}
		for i := range ref {
			if acc[i].Sub(ref[i]).Norm() > grav.RoundOff*(ref[i].Norm()+1) ||
				math.Abs(pot[i]-refPot[i]) > grav.RoundOff*(math.Abs(refPot[i])+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// groupSphereRef is the original two-AoS-pass implementation, kept as
// the reference for the optimized GroupSphere.
func groupSphereRef(pos []vec.V3) (center vec.V3, radius float64) {
	if len(pos) == 0 {
		return vec.V3{}, 0
	}
	lo, hi := pos[0], pos[0]
	for _, p := range pos[1:] {
		lo = vec.Min(lo, p)
		hi = vec.Max(hi, p)
	}
	center = lo.Add(hi).Scale(0.5)
	for _, p := range pos {
		if d := p.Sub(center).Norm(); d > radius {
			radius = d
		}
	}
	return center, radius
}

func TestGroupSphereMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{0, 1, 2, 3, 16, 100, 1000} {
		pos := make([]vec.V3, n)
		for i := range pos {
			pos[i] = vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		}
		c, r := GroupSphere(pos)
		cRef, rRef := groupSphereRef(pos)
		// Same arithmetic for the center; the radius is
		// sqrt(max d2) vs max sqrt(d2) -- identical because sqrt is
		// monotone and correctly rounded.
		if c != cRef || r != rRef {
			t.Fatalf("n=%d: got %v/%g want %v/%g", n, c, r, cRef, rRef)
		}
	}
}

func TestGroupSphereAllocsNothing(t *testing.T) {
	pos := make([]vec.V3, 512)
	rng := rand.New(rand.NewSource(20))
	for i := range pos {
		pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	if allocs := testing.AllocsPerRun(100, func() { GroupSphere(pos) }); allocs != 0 {
		t.Fatalf("GroupSphere allocates %v times per call", allocs)
	}
}

func BenchmarkGroupSphere(b *testing.B) {
	pos := make([]vec.V3, 16) // one bucket: the per-group hot case
	rng := rand.New(rand.NewSource(21))
	for i := range pos {
		pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GroupSphere(pos)
	}
}
