package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/keys"
	"repro/internal/vec"
)

// makeSystem builds a fully-featured system whose keys come from
// keyOf(i) and whose per-body payloads are distinct, so any column
// the permutation forgets or misroutes shows up as a mismatch.
func makeSystem(n int, keyOf func(i int) keys.Key, rng *rand.Rand) *System {
	s := New(n)
	s.EnableDynamics()
	s.EnableVortex()
	s.EnableSPH()
	s.Pos0, s.Alpha0 = make([]vec.V3, n), make([]vec.V3, n)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		f := float64(i)
		s.Key[i] = keyOf(i)
		s.ID[i] = int64(perm[i]) // IDs unique but shuffled
		s.Pos[i] = vec.V3{X: f, Y: f + 0.25, Z: f + 0.5}
		s.Mass[i] = f + 1
		s.Work[i] = uint64(i) + 2
		s.Vel[i] = vec.V3{X: -f}
		s.Acc[i] = vec.V3{Y: -f}
		s.Pot[i] = -f
		s.Alpha[i] = vec.V3{Z: -f}
		s.H[i] = f + 3
		s.Rho[i] = f + 4
		s.Pos0[i] = vec.V3{X: f + 5}
		s.Alpha0[i] = vec.V3{Y: f + 6}
	}
	return s
}

// reference sorts a clone of s with sort.SliceStable by (Key, ID) and
// returns the permutation.
func referencePerm(s *System) []int {
	idx := make([]int, s.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if s.Key[idx[a]] != s.Key[idx[b]] {
			return s.Key[idx[a]] < s.Key[idx[b]]
		}
		return s.ID[idx[a]] < s.ID[idx[b]]
	})
	return idx
}

func checkAgainstReference(t *testing.T, orig, got *System, perm []int) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, p := range perm {
		if got.Key[i] != orig.Key[p] || got.ID[i] != orig.ID[p] {
			t.Fatalf("body %d: got (key %v, id %d), want (key %v, id %d)",
				i, got.Key[i], got.ID[i], orig.Key[p], orig.ID[p])
		}
		if got.Pos[i] != orig.Pos[p] || got.Mass[i] != orig.Mass[p] ||
			got.Work[i] != orig.Work[p] ||
			got.Vel[i] != orig.Vel[p] || got.Acc[i] != orig.Acc[p] ||
			got.Pot[i] != orig.Pot[p] || got.Alpha[i] != orig.Alpha[p] ||
			got.H[i] != orig.H[p] || got.Rho[i] != orig.Rho[p] ||
			got.Pos0[i] != orig.Pos0[p] || got.Alpha0[i] != orig.Alpha0[p] {
			t.Fatalf("body %d: payload columns did not follow the permutation", i)
		}
	}
}

func clone(s *System) *System {
	c := New(0)
	c.EnableDynamics()
	c.EnableVortex()
	c.EnableSPH()
	for i := 0; i < s.Len(); i++ {
		c.AppendFrom(s, i)
	}
	return c
}

func randomBodyKey(rng *rand.Rand) keys.Key {
	return keys.FromCoords(
		uint32(rng.Intn(1<<21)), uint32(rng.Intn(1<<21)), uint32(rng.Intn(1<<21)),
		keys.MaxLevel)
}

func TestSortMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	few := []keys.Key{ // heavy MaxLevel collisions
		randomBodyKey(rng), randomBodyKey(rng), randomBodyKey(rng),
	}
	cases := map[string]func(i int) keys.Key{
		"random":     func(i int) keys.Key { return randomBodyKey(rng) },
		"allEqual":   func(i int) keys.Key { return few[0] },
		"collisions": func(i int) keys.Key { return few[i%3] },
		"sorted":     func(i int) keys.Key { return keys.FromCoords(uint32(i), 0, 0, keys.MaxLevel) },
		"reverse":    func(i int) keys.Key { return keys.FromCoords(uint32(5000-i), 0, 0, keys.MaxLevel) },
	}
	for name, keyOf := range cases {
		orig := makeSystem(3001, keyOf, rng)
		got := clone(orig)
		var st Sorter
		st.Sort(got)
		checkAgainstReference(t, orig, got, referencePerm(orig))
		if !got.Sorted() {
			t.Fatalf("%s: not sorted", name)
		}
		// Idempotence: a second sort is the identity.
		again := clone(got)
		st.Sort(again)
		checkAgainstReference(t, got, again, referencePerm(got))
	}
}

// A rank-sized system (the sorter used to fan out from 8192 bodies
// up) sorts on the one path like a small one.
func TestSortLargeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	orig := makeSystem(1<<14, func(i int) keys.Key { return randomBodyKey(rng) }, rng)
	got := clone(orig)
	new(Sorter).Sort(got)
	checkAgainstReference(t, orig, got, referencePerm(orig))
}

func TestSortByKeyPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	orig := makeSystem(513, func(i int) keys.Key { return randomBodyKey(rng) }, rng)
	got := clone(orig)
	got.SortByKey()
	checkAgainstReference(t, orig, got, referencePerm(orig))
}

func TestResortRepairsPerturbedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, frac := range []float64{0, 0.02, 0.1, 0.6} { // 0.6 forces the fallback
		orig := makeSystem(4000, func(i int) keys.Key { return randomBodyKey(rng) }, rng)
		st := &Sorter{}
		st.Sort(orig)
		// Perturb a fraction of the keys, as a dynamics step would.
		for i := 0; i < orig.Len(); i++ {
			if rng.Float64() < frac {
				orig.Key[i] = randomBodyKey(rng)
			}
		}
		got := clone(orig)
		d := st.Resort(got)
		if frac == 0 && d != 0 {
			t.Fatalf("resort of a sorted system reported %d displaced", d)
		}
		checkAgainstReference(t, orig, got, referencePerm(orig))
	}

	// One body whose key jumps ahead of a stretch of a sorted system is
	// the one body displaced, not the stretch it jumped over.
	orig := makeSystem(4000, func(i int) keys.Key { return randomBodyKey(rng) }, rng)
	st := &Sorter{}
	st.Sort(orig)
	orig.Key[1000] = orig.Key[3000]
	got := clone(orig)
	if d := st.Resort(got); d != 1 {
		t.Fatalf("one body jumped ahead: %d displaced, want 1", d)
	}
	checkAgainstReference(t, orig, got, referencePerm(orig))

	// A Plummer sphere drifted one step of dt = 1e-3 in a fixed domain: a
	// few bodies cross cells either way, and the repair stays local.
	const n = 10000
	drift := New(n)
	drift.EnableDynamics()
	for i := 0; i < n; i++ {
		drift.Pos[i], drift.Vel[i] = plummerBody(rng)
	}
	d := keys.NewDomain(drift.Pos)
	drift.AssignKeys(d)
	st.Sort(drift)
	for i := range drift.Pos {
		drift.Pos[i] = drift.Pos[i].Add(drift.Vel[i].Scale(1e-3))
	}
	drift.AssignKeys(d)
	ref := referencePerm(drift)
	before := clone(drift)
	if d := st.Resort(drift); d > 100 {
		t.Fatalf("Plummer drift: %d of %d displaced, want at most 100", d, n)
	} else {
		t.Logf("Plummer drift: %d of %d displaced", d, n)
	}
	for i, p := range ref {
		if drift.Key[i] != before.Key[p] || drift.ID[i] != before.ID[p] || drift.Vel[i] != before.Vel[p] {
			t.Fatalf("Plummer drift: body %d out of the reference order", i)
		}
	}
}

// plummerBody draws one body of a Plummer sphere of unit mass and scale
// radius, truncated at 10, in virial equilibrium: the Aarseth-Henon-Wielen
// sampling of package ic (which imports this one).
func plummerBody(rng *rand.Rand) (pos, vel vec.V3) {
	dir := func() vec.V3 {
		for {
			v := vec.V3{X: 2*rng.Float64() - 1, Y: 2*rng.Float64() - 1, Z: 2*rng.Float64() - 1}
			if n2 := v.Norm2(); n2 > 1e-8 && n2 <= 1 {
				return v.Scale(1 / math.Sqrt(n2))
			}
		}
	}
	r := 10.0
	for r >= 10 {
		r = 1 / math.Sqrt(math.Pow(rng.Float64(), -2.0/3.0)-1)
	}
	q := 0.0
	for {
		q = rng.Float64()
		if rng.Float64()*0.1 < q*q*math.Pow(1-q*q, 3.5) {
			break
		}
	}
	return dir().Scale(r), dir().Scale(q * math.Sqrt(2) * math.Pow(1+r*r, -0.25))
}

// Resort must also restore the ID tie-break among equal keys, not
// just the key order.
func TestResortEqualKeyTieBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	k := randomBodyKey(rng)
	orig := makeSystem(600, func(i int) keys.Key { return k }, rng)
	st := &Sorter{}
	st.Sort(orig)
	// Swap a few IDs out of order by re-keying nothing: displace IDs
	// directly to simulate exchange-merged runs.
	for s := 0; s < 20; s++ {
		i, j := rng.Intn(600), rng.Intn(600)
		orig.ID[i], orig.ID[j] = orig.ID[j], orig.ID[i]
	}
	want := clone(orig)
	(&Sorter{}).Sort(want)
	got := clone(orig)
	st.Resort(got)
	for i := 0; i < got.Len(); i++ {
		if got.ID[i] != want.ID[i] {
			t.Fatalf("tie-break order differs at body %d", i)
		}
	}
}

// A reused Sorter must not allocate in steady state: the permutation,
// value and gather scratch all persist.
func TestSorterSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := makeSystem(5000, func(i int) keys.Key { return randomBodyKey(rng) }, rng)
	st := &Sorter{}
	st.Sort(s)
	shuffle := func() {
		for i := 0; i < 200; i++ {
			s.Key[rng.Intn(s.Len())] = randomBodyKey(rng)
		}
	}
	shuffle()
	avg := testing.AllocsPerRun(5, func() {
		st.Sort(s)
		shuffle()
	})
	if avg > 0 {
		t.Fatalf("steady-state Sort allocates %.1f/op", avg)
	}
}

// A reused Sorter's scratch arrays come from swapping with whatever
// System it last sorted, and a System built by append has different
// capacities per column (capacity growth depends on element size). A
// later sort of a system whose length lands between two of those
// capacities used to panic in Apply, which gated every mandatory
// column's reallocation on cap(sPos) alone. Seen in the wild as a rank
// crash (then a world deadlock) in treebench at np=8.
func TestSorterScratchUnevenCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	small := makeSystem(100, func(int) keys.Key { return randomBodyKey(rng) }, rng)
	// Give one column spare capacity, as append-grown systems have.
	pos := make([]vec.V3, 100, 300)
	copy(pos, small.Pos)
	small.Pos = pos

	var st Sorter
	st.Sort(small) // scratch now holds small's arrays: Pos cap 300, Mass cap 100

	big := makeSystem(200, func(int) keys.Key { return randomBodyKey(rng) }, rng)
	ref := referencePerm(big)
	origBig := clone(big)
	st.Sort(big) // 100 < 200 <= 300: used to panic on sMass[:200]
	checkAgainstReference(t, origBig, big, ref)
}
