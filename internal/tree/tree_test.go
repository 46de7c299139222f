package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/keys"
	"repro/internal/vec"
)

// cloud builds a key-sorted random system inside the unit cube.
func cloud(n int, seed int64) (*core.System, keys.Domain) {
	rng := rand.New(rand.NewSource(seed))
	sys := core.New(n)
	sys.EnableDynamics()
	for i := 0; i < n; i++ {
		// Mildly clustered: half uniform, half in a tight clump, so
		// the tree is adaptive.
		if i%2 == 0 {
			sys.Pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		} else {
			sys.Pos[i] = vec.V3{
				X: 0.3 + 0.05*rng.NormFloat64(),
				Y: 0.7 + 0.05*rng.NormFloat64(),
				Z: 0.2 + 0.05*rng.NormFloat64(),
			}
		}
		sys.Mass[i] = 1.0 / float64(n)
	}
	d := keys.NewDomain(sys.Pos)
	sys.AssignKeys(d)
	sys.SortByKey()
	return sys, d
}

func TestBuildInvariants(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 17, 100, 3000} {
		sys, d := cloud(n, int64(n)+1)
		tr := Build(sys, d, grav.DefaultMAC(), 16)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n > 0 && tr.NCells() == 0 {
			t.Fatalf("n=%d: no cells", n)
		}
	}
}

func TestBuildRequiresSorted(t *testing.T) {
	sys, d := cloud(100, 2)
	// Corrupt the order.
	sys.Key[0], sys.Key[50] = sys.Key[50], sys.Key[0]
	defer func() {
		if recover() == nil {
			t.Fatal("Build on unsorted bodies should panic")
		}
	}()
	Build(sys, d, grav.DefaultMAC(), 16)
}

func TestDuplicatePositions(t *testing.T) {
	// More identical bodies than the bucket size: the tree must stop
	// subdividing at MaxLevel and still be consistent.
	sys := core.New(40)
	sys.EnableDynamics()
	for i := range sys.Pos {
		sys.Pos[i] = vec.V3{X: 0.5, Y: 0.5, Z: 0.5}
		sys.Mass[i] = 1
	}
	d := keys.Domain{Origin: vec.V3{}, Size: 1}
	sys.AssignKeys(d)
	sys.SortByKey()
	tr := Build(sys, d, grav.DefaultMAC(), 8)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Forces with softening must be finite and ~zero by symmetry.
	ctr := tr.Gravity(1e-2)
	if ctr.Interactions() == 0 {
		t.Fatal("no interactions")
	}
	for i := range sys.Acc {
		if math.IsNaN(sys.Acc[i].Norm()) || sys.Acc[i].Norm() > 1e-9 {
			t.Fatalf("body %d acc = %v", i, sys.Acc[i])
		}
	}
}

func accuracy(t *testing.T, mac grav.MACParams, n int) (rms, max float64) {
	t.Helper()
	sys, d := cloud(n, 42)
	tr := Build(sys, d, mac, 16)
	const eps2 = 1e-6
	tr.Gravity(eps2)
	var sum2 float64
	for i := range sys.Pos {
		// Direct reference, excluding self.
		var exact vec.V3
		for j := range sys.Pos {
			if j == i {
				continue
			}
			dd := sys.Pos[j].Sub(sys.Pos[i])
			r2 := dd.Norm2() + eps2
			rinv := 1 / math.Sqrt(r2)
			exact = exact.Add(dd.Scale(sys.Mass[j] * rinv * rinv * rinv))
		}
		rel := sys.Acc[i].Sub(exact).Norm() / (exact.Norm() + 1e-30)
		sum2 += rel * rel
		if rel > max {
			max = rel
		}
	}
	return math.Sqrt(sum2 / float64(n)), max
}

func TestGravityAccuracySW(t *testing.T) {
	rms, _ := accuracy(t, grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-7, Quad: true}, 1500)
	// The paper quotes RMS force accuracy better than 1e-3; with a
	// tight tolerance we should do much better.
	if rms > 1e-4 {
		t.Fatalf("RMS relative force error %g", rms)
	}
}

func TestGravityAccuracyBH(t *testing.T) {
	rms, _ := accuracy(t, grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.6, Quad: true}, 1500)
	if rms > 1e-3 {
		t.Fatalf("BH theta=0.6 RMS error %g", rms)
	}
}

func TestMACToleranceOrdering(t *testing.T) {
	loose, _ := accuracy(t, grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true}, 800)
	tight, _ := accuracy(t, grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-8, Quad: true}, 800)
	if tight >= loose {
		t.Fatalf("tighter tolerance did not reduce error: %g vs %g", tight, loose)
	}
}

func TestQuadBeatsMono(t *testing.T) {
	mono, _ := accuracy(t, grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.8, Quad: false}, 800)
	quad, _ := accuracy(t, grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.8, Quad: true}, 800)
	if quad >= mono {
		t.Fatalf("quadrupole (%g) not better than monopole (%g)", quad, mono)
	}
}

func TestGravityCountersAndWork(t *testing.T) {
	sys, d := cloud(2000, 7)
	// Use the scale-free Barnes-Hut MAC for the operation-count test;
	// the absolute-error MAC's cost depends on the problem's force
	// normalization (see TestGravityAccuracySW for its accuracy).
	tr := Build(sys, d, grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.7, Quad: true}, 16)
	ctr := tr.Gravity(1e-6)
	if ctr.PP == 0 || ctr.PC == 0 {
		t.Fatalf("counters: %+v", ctr)
	}
	// O(N log N): far fewer interactions than N^2 but at least N.
	n := uint64(2000)
	if ctr.Interactions() >= n*n/2 {
		t.Fatalf("interaction count %d not sub-quadratic", ctr.Interactions())
	}
	if ctr.Interactions() < n {
		t.Fatalf("interaction count %d implausibly low", ctr.Interactions())
	}
	// Each group's count divides by its size, so the weights add up to
	// the count exactly.
	var work uint64
	for i, w := range sys.Work {
		if w == 0 {
			t.Fatalf("body %d has no work", i)
		}
		work += w
	}
	if work != ctr.Interactions() {
		t.Fatalf("work weights sum to %d, the evaluation counted %d", work, ctr.Interactions())
	}
	if ctr.Flops() != ctr.Interactions()*38+ctr.QuadPC*70 {
		t.Fatal("flop accounting mismatch")
	}
}

// netForce returns |sum m a| and sum m |a| over sys.
func netForce(sys *core.System) (net, scale float64) {
	var f vec.V3
	for i := range sys.Acc {
		f = f.Add(sys.Acc[i].Scale(sys.Mass[i]))
		scale += sys.Acc[i].Norm() * sys.Mass[i]
	}
	return f.Norm(), scale
}

func TestMomentumConservation(t *testing.T) {
	// Sum of m*a over all bodies should vanish for the PP part and be
	// tiny overall (multipole truncation breaks symmetry only at the
	// error tolerance level): on the clustered cloud at a tight
	// tolerance, and on a Plummer sphere at the drivers' operating
	// point.
	tight := grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-8, Quad: true}
	csys, cd := cloud(1000, 9)
	psys, pd := sorted(ic.Plummer(3000, 1.0, 5))
	for _, c := range []struct {
		name string
		sys  *core.System
		d    keys.Domain
		mac  grav.MACParams
		tol  float64
	}{
		{"clustered", csys, cd, tight, 1e-4},           // measured 4e-13
		{"plummer", psys, pd, grav.DefaultMAC(), 1e-4}, // measured 1.9e-5
	} {
		Build(c.sys, c.d, c.mac, 16).Gravity(1e-6)
		if net, scale := netForce(c.sys); net > c.tol*scale {
			t.Errorf("%s: net force %g (scale %g)", c.name, net, scale)
		}
	}
}

func TestGroupSphere(t *testing.T) {
	c, r := GroupSphere(nil)
	if c != (vec.V3{}) || r != 0 {
		t.Fatal("empty sphere")
	}
	pos := []vec.V3{{X: -1}, {X: 1}, {X: 0, Y: 0.5}}
	c, r = GroupSphere(pos)
	if c.Sub(vec.V3{Y: 0.25}).Norm() > 1e-14 {
		t.Fatalf("center = %v", c)
	}
	for _, p := range pos {
		if p.Sub(c).Norm() > r+1e-14 {
			t.Fatalf("point %v outside sphere r=%v", p, r)
		}
	}
}

func TestRangeDecomposeTiles(t *testing.T) {
	f := func(a, b uint64) bool {
		lo := a % (EndOffset + 1)
		hi := b % (EndOffset + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		cells := RangeDecompose(lo, hi)
		if lo == hi {
			return len(cells) == 0
		}
		cur := lo
		for _, c := range cells {
			if !c.Valid() {
				return false
			}
			if KeyOffset(c.MinBody()) != cur {
				return false
			}
			cur = KeyOffset(c.MaxBody()) + 1
		}
		return cur == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeDecomposeWholeDomain(t *testing.T) {
	cells := RangeDecompose(0, EndOffset)
	// The whole domain decomposes into exactly the root cell.
	if len(cells) != 1 || cells[0] != keys.Root {
		t.Fatalf("whole domain -> %v", cells)
	}
}

func TestRangeDecomposeIsMinimal(t *testing.T) {
	// An octant-aligned interval must come back as a single cell, not
	// eight children.
	c := keys.Root.Child(3)
	cells := RangeDecompose(KeyOffset(c.MinBody()), KeyOffset(c.MaxBody())+1)
	if len(cells) != 1 || cells[0] != c {
		t.Fatalf("aligned octant -> %v", cells)
	}
}

func BenchmarkTreeBuild10k(b *testing.B) {
	sys, d := cloud(10000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(sys, d, grav.DefaultMAC(), 16)
	}
}

func BenchmarkTreeGravity10k(b *testing.B) {
	sys, d := cloud(10000, 1)
	tr := Build(sys, d, grav.DefaultMAC(), 16)
	b.ResetTimer()
	var inter uint64
	for i := 0; i < b.N; i++ {
		ctr := tr.Gravity(1e-6)
		inter += ctr.Interactions()
	}
	b.ReportMetric(float64(inter)/float64(b.N), "interactions/op")
}

// Property: BuildRange with a random force-split interval keeps all
// tree invariants and materializes every branch cell of the interval
// as a node (the contract the parallel engine depends on).
func TestBuildRangeBranchesMaterialize(t *testing.T) {
	f := func(seed int64, aRaw, bRaw uint64) bool {
		sys, d := cloud(300, seed)
		lo := aRaw % (EndOffset + 1)
		hi := bRaw % (EndOffset + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			return true
		}
		// Keep only bodies inside [lo, hi) -- the parallel engine's
		// precondition after decomposition.
		kept := core.New(0)
		kept.EnableDynamics()
		for i := 0; i < sys.Len(); i++ {
			off := KeyOffset(sys.Key[i])
			if off >= lo && off < hi {
				kept.AppendFrom(sys, i)
			}
		}
		if kept.Len() == 0 {
			return true
		}
		kept.AssignKeys(d)
		kept.SortByKey()
		tr := BuildRange(kept, d, grav.DefaultMAC(), 8, lo, hi)
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		// Every nonempty branch of [lo,hi) must exist as a node.
		for _, bk := range RangeDecompose(lo, hi) {
			blo, bhi := KeyOffset(bk.MinBody()), KeyOffset(bk.MaxBody())
			hasBody := false
			for i := 0; i < kept.Len(); i++ {
				off := KeyOffset(kept.Key[i])
				if off >= blo && off <= bhi {
					hasBody = true
					break
				}
			}
			if hasBody && tr.Cell(bk) == nil {
				t.Logf("branch %v (lvl %d) missing from force-split tree", bk, bk.Level())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
