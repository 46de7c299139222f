package tree

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/keys"
	"repro/internal/vec"
)

// rankTrees splits sys into np contiguous, equal-count intervals of the
// Morton curve, the way a decomposition does, and builds each rank's
// tree over its own bodies with the cells straddling its interval
// force-split.
func rankTrees(sys *core.System, d keys.Domain, mac grav.MACParams, np int) []*Tree {
	n := sys.Len()
	trees := make([]*Tree, np)
	for r := range trees {
		lo, hi := uint64(0), EndOffset
		if r > 0 {
			lo = KeyOffset(sys.Key[r*n/np])
		}
		if r < np-1 {
			hi = KeyOffset(sys.Key[(r+1)*n/np])
		}
		local := core.New(0)
		local.EnableDynamics()
		for i := r * n / np; i < (r+1)*n/np; i++ {
			local.AppendFrom(sys, i)
		}
		local.AssignKeys(d)
		local.SortByKey()
		trees[r] = BuildRange(local, d, mac, 16, lo, hi)
	}
	return trees
}

// The groups of a tree are sink cells: they tile the bodies in Morton
// order, each is a leaf or a cell of at most SinkCap bodies, the
// largest such, wholly inside the rank's interval -- on one rank and
// under the force-splits of 2 and 8. CheckInvariants holds all of that;
// it is shown here not to be vacuous, on trees it must reject.
func TestSinkGroupsInvariants(t *testing.T) {
	sys, d := sorted(ic.Plummer(4000, 1.0, 11))
	mac := grav.DefaultMAC()
	for _, np := range []int{1, 2, 8} {
		for r, tr := range rankTrees(sys, d, mac, np) {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("np=%d rank %d: %v", np, r, err)
			}
			leaves := LeafGroups(tr)
			if len(tr.Groups) >= len(leaves) {
				t.Fatalf("np=%d rank %d: %d groups over %d leaves: no cell above a leaf was a sink", np, r, len(tr.Groups), len(leaves))
			}
			most := int32(0)
			for _, gk := range tr.Groups {
				most = max(most, tr.Cell(gk).N)
			}
			if most <= 16 || most > SinkCap {
				t.Fatalf("np=%d rank %d: largest group holds %d bodies, want one above a bucket and none above %d", np, r, most, SinkCap)
			}
		}
	}

	tr := Build(sys, d, mac, 16)
	sinks := tr.Groups
	reject := func(what, want string, groups []keys.Key) {
		t.Helper()
		tr.Groups = groups
		if err := tr.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: CheckInvariants = %v, want an error about %q", what, err, want)
		}
		tr.Groups = sinks
	}
	reject("leaves as groups", "not the largest", LeafGroups(tr))
	reject("a group dropped", "starts at", sinks[1:])
	parent := slices.Clone(sinks) // a sink's parent in its place: above the cap, or straddling
	parent[0] = sinks[0].Parent()
	reject("a cell above the cap", "neither a leaf nor a sink", parent)

	// A cell straddling the interval is no sink however few its bodies:
	// the force-split leaves such cells along the boundary.
	half := rankTrees(sys, d, mac, 2)[0]
	isGroup := map[keys.Key]bool{}
	for _, gk := range half.Groups {
		isGroup[gk] = true
	}
	straddlers := 0
	half.Cells.Range(func(k keys.Key, c *Cell) bool {
		if int(c.N) <= SinkCap && !half.inside(k) {
			straddlers++
			if isGroup[k] {
				t.Fatalf("group %v (%d bodies) straddles the rank's interval", k, c.N)
			}
		}
		return true
	})
	if straddlers == 0 {
		t.Fatal("vacuous: no cell of at most SinkCap bodies straddles the interval")
	}
}

// listMass walks group gk of tr and returns the mass its list carries
// as body sources and as cells, failing if a listed cell lies at or
// below the group's own key or the group's own cell was not taken.
func listMass(t *testing.T, tr *Tree, w *Walker, gk keys.Key) (sources, cells float64) {
	t.Helper()
	g := tr.Cell(gk)
	gc, gr := GroupSphere(tr.Sys.Pos[g.First : g.First+g.N])
	w.Begin(gk, gc)
	w.d.Aim(gk, gc, gr)
	tr.Descend(&w.d, 0, 1, true)
	for _, c := range w.d.Accepted {
		if gk.Contains(c.Key) {
			t.Fatalf("group %v: its list holds cell %v, one of its own", gk, c.Key)
		}
	}
	w.TakeLeaves(w.d.Opened, tr)
	w.TakeCells(w.d.Accepted)
	w.d.Drop()
	if !w.List.Self {
		t.Fatalf("group %v: the walk never took the group's own cell", gk)
	}
	for _, m := range w.List.SM {
		sources += float64(m)
	}
	for _, m := range w.List.CM {
		cells += float64(m)
	}
	return sources, cells
}

// listMassTol is how far a list's mass may lie from the tree's: the
// list carries float32 masses, each within 2^-24 of its own, so their
// sum is within 2^-24 of the total (and float64 sums add nothing
// visible). One body missed or counted twice in these clouds of at
// most 1500 is at least 6.7e-4 of it.
const listMassTol = 0x1p-23

// The cells under a group's own key are never put to the MAC. The case
// that shows why: in cloud(1000, 9) at AccelTol 1e-8 group 86 holds 21
// bodies, its one-body sub-cell 694 (RCrit = 0) sets the sphere's
// radius, d == gr up to rounding, and the squared test accepts it: the
// body would attract itself as a monopole. Then the property, over
// random clouds: every group's list accounts for all the mass exactly
// once -- sources + cells + the group's own -- and names no cell of the
// group's own.
func TestOwnCellsAlwaysOpen(t *testing.T) {
	sys, d := cloud(1000, 9)
	tr := Build(sys, d, grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-8, Quad: true}, 16)
	const gk, sub = keys.Key(86), keys.Key(694)
	g, c := tr.Cell(gk), tr.Cell(sub)
	if g == nil || c == nil || !gk.Contains(sub) || !slices.Contains(tr.Groups, gk) {
		t.Fatalf("the case moved: group %v = %+v, sub-cell %v = %+v", gk, g, sub, c)
	}
	gc, gr := GroupSphere(sys.Pos[g.First : g.First+g.N])
	if a := Classify(c, gc, gr); a != Accept {
		t.Fatalf("the MAC gives %v for sub-cell %v of group %v; the case needs it to accept", a, sub, gk)
	}
	var w Walker
	sources, cells := listMass(t, tr, &w, gk)
	if got := sources + cells + g.Mp.M; math.Abs(got-1) > listMassTol {
		t.Fatalf("group %v: list mass %g + %g + own %g = %g, want 1", gk, sources, cells, g.Mp.M, got)
	}

	f := func(seed int64, quad bool, tight bool) bool {
		n := 300 + int(uint64(seed)%1200)
		sys, d := cloud(n, seed)
		mac := grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: quad}
		if tight {
			mac.AccelTol = 1e-8
		}
		for _, tr := range rankTrees(sys, d, mac, 1+int(uint64(seed)%3)) {
			total := tr.Cell(keys.Root).Mp.M
			for _, gk := range tr.Groups {
				sources, cells := listMass(t, tr, &w, gk)
				if got := sources + cells + tr.Cell(gk).Mp.M; math.Abs(got-total) > listMassTol*total {
					t.Logf("seed %d group %v: list mass %g, tree mass %g", seed, gk, got, total)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// PerBodyWalk against an independent count: what the fused reference
// walk charges each sampled body as a group of its own (which counts
// the body's pairing with itself in its leaf's tile), and below what
// the grouped walk charged it, its work weight.
func TestPerBodyWalkCounts(t *testing.T) {
	sys, d := cloud(3000, 13)
	tr := Build(sys, d, grav.DefaultMAC(), 16)
	tr.Gravity(1e-6)
	const stride = 7
	perBody, sampled := tr.PerBodyWalk(stride)
	if sampled != (3000+stride-1)/stride {
		t.Fatalf("sampled %d bodies, want every %dth of 3000", sampled, stride)
	}
	var want uint64
	var grouped uint64
	for i := 0; i < sys.Len(); i += stride {
		var one diag.Counters
		WalkFused(tr, keys.Invalid, sys.Pos[i:i+1], sys.Mass[i:i+1], make([]vec.V3, 1), make([]float64, 1), 1e-6, true, &one)
		want += one.PP + one.PC - 1
		grouped += sys.Work[i]
	}
	if perBody != want {
		t.Fatalf("PerBodyWalk counts %d interactions, the reference walk %d", perBody, want)
	}
	if perBody >= grouped {
		t.Fatalf("the per-body walk counts %d, no fewer than the grouped walk's %d", perBody, grouped)
	}
}
