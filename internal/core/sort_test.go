package core

import (
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
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		f := float64(i)
		s.Key[i] = keyOf(i)
		s.ID[i] = int64(perm[i]) // IDs unique but shuffled
		s.Pos[i] = vec.V3{X: f, Y: f + 0.25, Z: f + 0.5}
		s.Mass[i] = f + 1
		s.Work[i] = f + 2
		s.Vel[i] = vec.V3{X: -f}
		s.Acc[i] = vec.V3{Y: -f}
		s.Pot[i] = -f
		s.Alpha[i] = vec.V3{Z: -f}
		s.H[i] = f + 3
		s.Rho[i] = f + 4
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
			got.H[i] != orig.H[p] || got.Rho[i] != orig.Rho[p] {
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
		want := clone(orig)
		(&Sorter{}).Sort(want)
		got := clone(orig)
		d := st.Resort(got)
		if frac == 0 && d != 0 {
			t.Fatalf("resort of a sorted system reported %d displaced", d)
		}
		for i := 0; i < got.Len(); i++ {
			if got.Key[i] != want.Key[i] || got.ID[i] != want.ID[i] ||
				got.Pos[i] != want.Pos[i] || got.Rho[i] != want.Rho[i] {
				t.Fatalf("frac %g: resort differs from full sort at body %d", frac, i)
			}
		}
	}
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
