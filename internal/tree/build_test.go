package tree

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/grav"
	"repro/internal/htab"
	"repro/internal/ic"
	"repro/internal/keys"
)

// buildTestSystem returns a key-sorted clustered system.
func buildTestSystem(n int, seed int64) (*core.System, keys.Domain) {
	sys := ic.Plummer(n, 1.0, seed)
	d := keys.NewDomain(sys.Pos)
	sys.AssignKeys(d)
	sys.SortByKey()
	return sys, d
}

// treesEqual asserts two trees are byte-identical: same cells (all
// fields, moments, RCrit and child index included) at the same
// entries, and the same group order.
func treesEqual(t *testing.T, want, got *Tree) {
	t.Helper()
	if want.NCells() != got.NCells() {
		t.Fatalf("cell count %d != %d", got.NCells(), want.NCells())
	}
	i := 0
	want.Cells.Range(func(k keys.Key, wc *Cell) bool {
		gc := got.Cell(k)
		if gc == nil {
			t.Fatalf("cell %v missing", k)
		}
		if gc != got.Cells.At(i) {
			t.Fatalf("cell %v is not entry %d", k, i)
		}
		if *gc != *wc {
			t.Fatalf("cell %v differs:\n want %+v\n got  %+v", k, *wc, *gc)
		}
		i++
		return true
	})
	if len(want.Groups) != len(got.Groups) {
		t.Fatalf("group count %d != %d", len(got.Groups), len(want.Groups))
	}
	for i := range want.Groups {
		if want.Groups[i] != got.Groups[i] {
			t.Fatalf("group %d: %v != %v", i, got.Groups[i], want.Groups[i])
		}
	}
}

// A Builder reused from build to build (one per rank, every step)
// gives the tree a fresh one gives, byte for byte and entry for entry,
// for any body count and bucket size, growing or shrinking in between.
func TestBuilderReuseMatchesFresh(t *testing.T) {
	var reused Builder
	mac := grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true}
	for _, n := range []int{5000, 0, 1, 50, 5000} {
		sys, d := buildTestSystem(n, 31)
		for _, bucket := range []int{1, 16} {
			fresh := BuildRange(sys, d, mac, bucket, 0, EndOffset)
			if err := fresh.CheckInvariants(); err != nil {
				t.Fatalf("n=%d bucket=%d: %v", n, bucket, err)
			}
			again := reused.BuildRange(sys, d, mac, bucket, 0, EndOffset)
			if err := again.CheckInvariants(); err != nil {
				t.Fatalf("n=%d bucket=%d reused: %v", n, bucket, err)
			}
			treesEqual(t, fresh, again)
		}
	}
}

// Force-split ranges (the parallel engine's branch-cell guarantee):
// every branch cell of a random interval materializes as a node, the
// layout invariants hold around the forced splits, and a reused
// Builder agrees with a fresh one.
func TestBuildRangeSplits(t *testing.T) {
	sys, d := buildTestSystem(4000, 37)
	mac := grav.DefaultMAC()
	rng := rand.New(rand.NewSource(5))
	var reused Builder
	for trial := 0; trial < 8; trial++ {
		a := uint64(rng.Int63()) % EndOffset
		b := uint64(rng.Int63()) % EndOffset
		if a > b {
			a, b = b, a
		}
		fresh := BuildRange(sys, d, mac, 16, a, b)
		if err := fresh.CheckInvariants(); err != nil {
			t.Fatalf("[%d, %d): %v", a, b, err)
		}
		for _, bk := range RangeDecompose(a, b) {
			lo := UpperBound(sys.Key, bk.MinBody()-1)
			if hi := UpperBound(sys.Key, bk.MaxBody()); hi > lo && fresh.Cell(bk) == nil {
				t.Fatalf("[%d, %d): branch %v holds %d bodies and is not a cell", a, b, bk, hi-lo)
			}
		}
		treesEqual(t, fresh, reused.BuildRange(sys, d, mac, 16, a, b))
	}
}

// The package-level BuildRange is a transient Builder's.
func TestBuildRangeWrapperUnchanged(t *testing.T) {
	sys, d := buildTestSystem(3000, 41)
	mac := grav.DefaultMAC()
	wrapped := BuildRange(sys, d, mac, 16, 0, EndOffset)
	built := new(Builder).BuildRange(sys, d, mac, 16, 0, EndOffset)
	treesEqual(t, built, wrapped)
	if err := wrapped.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpperBound(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 65, 500} {
		ks := make([]keys.Key, n)
		for i := range ks {
			ks[i] = keys.Key(1<<63 | uint64(i*3)) // sorted, gaps of 3
		}
		for q := -1; q < 3*n+2; q++ {
			max := keys.Key(1<<63 | uint64(q))
			if q < 0 {
				max = keys.Key(1 << 63)
			}
			want := 0
			for want < n && ks[want] <= max {
				want++
			}
			if got := UpperBound(ks, max); got != want {
				t.Fatalf("n=%d q=%d: upperBound=%d want %d", n, q, got, want)
			}
		}
	}
}

// The AND-mask hash scatters a real tree's keys: looking every cell up
// once costs about two chain links on average and no chain is long.
// (Measured, Plummer | clustered: 1.84 probes per lookup, chain 6 |
// 1.23, chain 3. Keys whose low bits repeat, as an arithmetic sequence
// of coordinates makes them, are what it cannot scatter, and a tree
// does not produce those.)
func TestHashQualityOnRealKeys(t *testing.T) {
	psys, pd := sorted(ic.Plummer(10000, 1.0, 5))
	csys, cd := cloud(10000, 9)
	for _, c := range []struct {
		name string
		sys  *core.System
		d    keys.Domain
	}{{"plummer", psys, pd}, {"clustered", csys, cd}} {
		name, tr := c.name, Build(c.sys, c.d, grav.DefaultMAC(), 16)
		tr.Cells.Stats = htab.Stats{}
		for _, k := range tr.Cells.Keys() {
			if _, ok := tr.Cells.Lookup(k); !ok {
				t.Fatalf("%s: cell %v not found", name, k)
			}
		}
		st := tr.Cells.Stats
		mean := float64(st.Probes) / float64(st.Lookups)
		t.Logf("%s: %d cells, %.2f probes per lookup, longest chain %d", name, tr.NCells(), mean, tr.Cells.MaxChain())
		if mean > 2.5 || tr.Cells.MaxChain() > 8 {
			t.Errorf("%s: %.2f probes per lookup (want <= 2.5), longest chain %d (want <= 8)",
				name, mean, tr.Cells.MaxChain())
		}
	}
}
