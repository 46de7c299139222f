package htab

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/keys"
)

func TestInsertLookup(t *testing.T) {
	tb := New[int](4)
	if tb.Len() != 0 {
		t.Fatal("new table not empty")
	}
	if _, ok := tb.Lookup(keys.Root); ok {
		t.Fatal("lookup in empty table succeeded")
	}
	if !tb.Insert(keys.Root, 42) {
		t.Fatal("first insert should be new")
	}
	if v, ok := tb.Lookup(keys.Root); !ok || v != 42 {
		t.Fatalf("lookup = %v, %v", v, ok)
	}
	if tb.Insert(keys.Root, 43) {
		t.Fatal("second insert of same key should replace, not add")
	}
	if v, _ := tb.Lookup(keys.Root); v != 43 {
		t.Fatalf("replace failed: %v", v)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestGrowManyKeys(t *testing.T) {
	tb := New[uint64](4)
	rng := rand.New(rand.NewSource(2))
	ref := make(map[keys.Key]uint64)
	for i := 0; i < 20000; i++ {
		k := keys.FromCoords(rng.Uint32()&0x1FFFFF, rng.Uint32()&0x1FFFFF, rng.Uint32()&0x1FFFFF, keys.MaxLevel)
		v := rng.Uint64()
		tb.Insert(k, v)
		ref[k] = v
	}
	if tb.Len() != len(ref) {
		t.Fatalf("len = %d, want %d", tb.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := tb.Lookup(k)
		if !ok || got != v {
			t.Fatalf("lookup %v = %v,%v want %v", k, got, ok, v)
		}
	}
}

func TestUpsertAndPtr(t *testing.T) {
	tb := New[int](4)
	p := tb.Upsert(keys.Root)
	if *p != 0 {
		t.Fatal("upsert should create zero value")
	}
	*p = 7
	if v, _ := tb.Lookup(keys.Root); v != 7 {
		t.Fatalf("write through Upsert pointer lost: %v", v)
	}
	p2 := tb.Ptr(keys.Root)
	if p2 == nil || *p2 != 7 {
		t.Fatal("Ptr should find existing entry")
	}
	if tb.Ptr(keys.Root.Child(3)) != nil {
		t.Fatal("Ptr of absent key should be nil")
	}
	// Upsert of an existing key returns the same entry.
	p3 := tb.Upsert(keys.Root)
	if *p3 != 7 {
		t.Fatal("upsert of existing key should not reset value")
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestClear(t *testing.T) {
	tb := New[int](4)
	for i := 0; i < 100; i++ {
		tb.Insert(keys.Key(1<<21|i), i)
	}
	tb.Clear()
	if tb.Len() != 0 {
		t.Fatal("clear did not empty table")
	}
	if _, ok := tb.Lookup(keys.Key(1<<21 | 5)); ok {
		t.Fatal("stale entry after clear")
	}
	// Table must be reusable.
	tb.Insert(keys.Root, 1)
	if v, ok := tb.Lookup(keys.Root); !ok || v != 1 {
		t.Fatal("table unusable after clear")
	}
}

func TestRangeInsertionOrder(t *testing.T) {
	tb := New[int](4)
	want := []keys.Key{keys.Root, keys.Root.Child(1), keys.Root.Child(2), keys.Root.Child(1).Child(7)}
	for i, k := range want {
		tb.Insert(k, i)
	}
	var got []keys.Key
	tb.Range(func(k keys.Key, v *int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("range visited %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range order[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// At(i) is the i-th entry inserted, the one Ptr finds by key,
	// across the growth the inserts caused.
	for i, k := range want {
		if p := tb.At(i); p != tb.Ptr(k) || *p != i {
			t.Fatalf("At(%d) = %v, want the entry of %v", i, *p, k)
		}
	}
	// Early stop.
	n := 0
	tb.Range(func(keys.Key, *int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestTruncateKeepsThePrefix truncates across growth and across chains
// that mix kept and removed entries: the kept keys keep their index and
// value, the removed ones are gone, and the table takes new keys again.
func TestTruncateKeepsThePrefix(t *testing.T) {
	tb := New[int](4)
	rng := rand.New(rand.NewSource(5))
	var ks []keys.Key
	for i := 0; i < 3000; i++ {
		k := keys.Key(1<<30 | rng.Intn(1<<12)<<4) // many share low bits
		if tb.Insert(k, i) {
			ks = append(ks, k)
		}
	}
	for _, n := range []int{len(ks), len(ks) / 2, 17, 0} {
		tb.Truncate(n)
		if tb.Len() != n {
			t.Fatalf("Truncate(%d): len %d", n, tb.Len())
		}
		for i, k := range ks {
			if got := tb.Index(k); (i < n && got != i) || (i >= n && got != -1) {
				t.Fatalf("Truncate(%d): Index of entry %d = %d", n, i, got)
			}
		}
	}
	tb.Insert(ks[5], 5)
	if tb.Index(ks[5]) != 0 || tb.Ptr(ks[6]) != nil {
		t.Fatal("table unusable after truncation")
	}
}

func TestKeysMatchesRange(t *testing.T) {
	tb := New[int](4)
	for i := 0; i < 50; i++ {
		tb.Insert(keys.Root.Child(i%8).Child((i/8)%8), i)
	}
	ks := tb.Keys()
	if len(ks) != tb.Len() {
		t.Fatalf("Keys len %d != table len %d", len(ks), tb.Len())
	}
}

// Property: the table agrees with a Go map under a random sequence of
// inserts and lookups.
func TestAgainstMapProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		tb := New[uint32](4)
		ref := make(map[keys.Key]uint32)
		for _, op := range ops {
			// Use few distinct keys so collisions and replacement
			// paths are exercised.
			k := keys.Root.Child(int(op) % 8).Child(int(op>>3) % 8)
			tb.Insert(k, op)
			ref[k] = op
		}
		if tb.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tb.Lookup(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndMaxChain(t *testing.T) {
	tb := New[int](1024)
	// Force collisions: same low bits.
	base := keys.Key(1 << 30)
	for i := 0; i < 8; i++ {
		tb.Insert(base|keys.Key(i)<<20, i) // differ above the mask for small tables? mask is >= 1023
	}
	_ = tb.MaxChain()
	tb.Lookup(base)
	if tb.Stats.Lookups == 0 {
		t.Fatal("stats not counted")
	}
}

func BenchmarkHtabLookup(b *testing.B) {
	tb := New[int](1 << 16)
	rng := rand.New(rand.NewSource(3))
	ks := make([]keys.Key, 1<<16)
	for i := range ks {
		ks[i] = keys.FromCoords(rng.Uint32()&0x1FFFFF, rng.Uint32()&0x1FFFFF, rng.Uint32()&0x1FFFFF, keys.MaxLevel)
		tb.Insert(ks[i], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(ks[i&(1<<16-1)])
	}
}

func BenchmarkGoMapLookup(b *testing.B) {
	m := make(map[keys.Key]int, 1<<16)
	rng := rand.New(rand.NewSource(3))
	ks := make([]keys.Key, 1<<16)
	for i := range ks {
		ks[i] = keys.FromCoords(rng.Uint32()&0x1FFFFF, rng.Uint32()&0x1FFFFF, rng.Uint32()&0x1FFFFF, keys.MaxLevel)
		m[ks[i]] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m[ks[i&(1<<16-1)]]
	}
}
