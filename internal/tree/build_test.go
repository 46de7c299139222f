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
// fields, moments and RCrit included) and same group order.
func treesEqual(t *testing.T, want, got *Tree) {
	t.Helper()
	if want.NCells() != got.NCells() {
		t.Fatalf("cell count %d != %d", got.NCells(), want.NCells())
	}
	want.Cells.Range(func(k keys.Key, wc *Cell) bool {
		gc := got.Cell(k)
		if gc == nil {
			t.Fatalf("cell %v missing from parallel build", k)
		}
		if *gc != *wc {
			t.Fatalf("cell %v differs:\n serial  %+v\n parallel %+v", k, *wc, *gc)
		}
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

// The tentpole determinism claim: the fan-out build produces the
// serial build's tree byte for byte, for any worker count, bucket
// size, and force-split interval.
func TestParallelBuildMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 50, 5000} {
		sys, d := buildTestSystem(n, 31)
		mac := grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true}
		for _, bucket := range []int{1, 16} {
			serial := (&Builder{Workers: 1}).BuildRange(sys, d, mac, bucket, 0, EndOffset)
			if err := serial.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				b := &Builder{Workers: workers, minParallel: 1}
				par := b.BuildRange(sys, d, mac, bucket, 0, EndOffset)
				if err := par.CheckInvariants(); err != nil {
					t.Fatalf("n=%d bucket=%d w=%d: %v", n, bucket, workers, err)
				}
				treesEqual(t, serial, par)
				// A reused Builder must keep producing the same tree.
				treesEqual(t, serial, b.BuildRange(sys, d, mac, bucket, 0, EndOffset))
			}
		}
	}
}

// Force-split ranges (the parallel engine's branch-cell guarantee)
// must survive the fan-out build too.
func TestParallelBuildRangeSplits(t *testing.T) {
	sys, d := buildTestSystem(4000, 37)
	mac := grav.DefaultMAC()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		a := uint64(rng.Int63()) % EndOffset
		b := uint64(rng.Int63()) % EndOffset
		if a > b {
			a, b = b, a
		}
		serial := (&Builder{Workers: 1}).BuildRange(sys, d, mac, 16, a, b)
		par := (&Builder{Workers: 8, minParallel: 1}).BuildRange(sys, d, mac, 16, a, b)
		treesEqual(t, serial, par)
	}
}

// The package-level BuildRange must behave exactly as before the
// Builder existed (the serial driver and every old test ride on it).
func TestBuildRangeWrapperUnchanged(t *testing.T) {
	sys, d := buildTestSystem(3000, 41)
	mac := grav.DefaultMAC()
	wrapped := BuildRange(sys, d, mac, 16, 0, EndOffset)
	serial := (&Builder{Workers: 1}).BuildRange(sys, d, mac, 16, 0, EndOffset)
	treesEqual(t, serial, wrapped)
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
