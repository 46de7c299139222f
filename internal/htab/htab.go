// Package htab implements the hash table that gives the hashed
// oct-tree its name: a translation from global Morton keys to local
// cell storage. Following Warren & Salmon, the hash function is a
// simple AND-mask of the key's low bits (which vary fastest along the
// Morton curve, so spatially clustered cells scatter well), and
// collisions are resolved by chaining. The indirection through this
// table is also the hook where a distributed traversal detects
// accesses to non-local data: a missing key is not an error, it is a
// request waiting to be sent.
//
// The table is deliberately hand-rolled rather than a Go map: chains
// live in flat int32 slices, so the whole structure is three
// allocations regardless of size, Clear is O(buckets) with no
// re-allocation, and iteration order is insertion order (which the
// deterministic parallel code relies on).
package htab

import "repro/internal/keys"

// Table maps keys.Key to values of type V.
type Table[V any] struct {
	mask    uint64
	buckets []int32 // head index into entries, -1 if empty
	entries []entry[V]
	// Stats accumulates probe statistics for the hash ablation bench.
	Stats Stats
}

type entry[V any] struct {
	key  keys.Key
	next int32
	val  V
}

// Stats counts hash table activity.
type Stats struct {
	Lookups uint64 // total Lookup calls
	Probes  uint64 // total chain links followed
	Misses  uint64 // lookups that found nothing
}

// New returns a table sized for about n entries.
func New[V any](n int) *Table[V] {
	b := 16
	for b < n {
		b <<= 1
	}
	t := &Table[V]{
		mask:    uint64(b - 1),
		buckets: make([]int32, b),
		entries: make([]entry[V], 0, n),
	}
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	return t
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return len(t.entries) }

// hash is the paper's AND-mask hash.
func (t *Table[V]) hash(k keys.Key) int { return int(uint64(k) & t.mask) }

// Lookup returns the value stored under k.
func (t *Table[V]) Lookup(k keys.Key) (V, bool) {
	t.Stats.Lookups++
	for i := t.buckets[t.hash(k)]; i >= 0; i = t.entries[i].next {
		t.Stats.Probes++
		if t.entries[i].key == k {
			return t.entries[i].val, true
		}
	}
	t.Stats.Misses++
	var zero V
	return zero, false
}

// Ptr returns a pointer to the value stored under k, or nil. The
// pointer is invalidated by the next Insert (the entry slice may
// move), so callers must not hold it across mutations.
func (t *Table[V]) Ptr(k keys.Key) *V {
	if i := t.Index(k); i >= 0 {
		return &t.entries[i].val
	}
	return nil
}

// Index returns the insertion-order index of k's entry (At's i), or -1.
func (t *Table[V]) Index(k keys.Key) int {
	for i := t.buckets[t.hash(k)]; i >= 0; i = t.entries[i].next {
		if t.entries[i].key == k {
			return int(i)
		}
	}
	return -1
}

// Truncate removes every entry from the n-th on, keeping the first n
// and their indices. A chain runs from its newest entry to its oldest
// (Insert prepends, grow relinks in entry order), so each entry removed
// from the end is the head of its chain.
func (t *Table[V]) Truncate(n int) {
	for i := len(t.entries) - 1; i >= n; i-- {
		t.buckets[t.hash(t.entries[i].key)] = t.entries[i].next
	}
	clear(t.entries[n:])
	t.entries = t.entries[:n]
}

// At returns a pointer to the value of the i-th entry in insertion
// order, with no hash probe: the table keeps its entries in one flat
// slice, so a structure that records where it inserted related keys
// (a tree its cells' children, side by side) can move between them by
// index arithmetic and keep the hash for the names it has to look up.
// The same invalidation caveat as Ptr applies.
func (t *Table[V]) At(i int) *V { return &t.entries[i].val }

// Contains reports whether k is present.
func (t *Table[V]) Contains(k keys.Key) bool {
	for i := t.buckets[t.hash(k)]; i >= 0; i = t.entries[i].next {
		if t.entries[i].key == k {
			return true
		}
	}
	return false
}

// Insert stores val under k, replacing any existing value. It reports
// whether the key was newly inserted.
func (t *Table[V]) Insert(k keys.Key, val V) bool {
	h := t.hash(k)
	for i := t.buckets[h]; i >= 0; i = t.entries[i].next {
		if t.entries[i].key == k {
			t.entries[i].val = val
			return false
		}
	}
	if len(t.entries) >= 2*len(t.buckets) {
		t.grow()
		h = t.hash(k)
	}
	t.entries = append(t.entries, entry[V]{key: k, next: t.buckets[h], val: val})
	t.buckets[h] = int32(len(t.entries) - 1)
	return true
}

// Upsert returns a pointer to the value under k, inserting the zero
// value first if absent. The same invalidation caveat as Ptr applies.
func (t *Table[V]) Upsert(k keys.Key) *V {
	h := t.hash(k)
	for i := t.buckets[h]; i >= 0; i = t.entries[i].next {
		if t.entries[i].key == k {
			return &t.entries[i].val
		}
	}
	if len(t.entries) >= 2*len(t.buckets) {
		t.grow()
		h = t.hash(k)
	}
	var zero V
	t.entries = append(t.entries, entry[V]{key: k, next: t.buckets[h], val: zero})
	t.buckets[h] = int32(len(t.entries) - 1)
	return &t.entries[len(t.entries)-1].val
}

func (t *Table[V]) grow() {
	nb := len(t.buckets) * 2
	t.buckets = make([]int32, nb)
	t.mask = uint64(nb - 1)
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	for i := range t.entries {
		h := t.hash(t.entries[i].key)
		t.entries[i].next = t.buckets[h]
		t.buckets[h] = int32(i)
	}
}

// Clear removes all entries but keeps the allocated capacity.
func (t *Table[V]) Clear() {
	t.entries = t.entries[:0]
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	t.Stats = Stats{}
}

// Range calls f for every (key, value) pair in insertion order,
// stopping early if f returns false. The table must not be mutated
// during iteration.
func (t *Table[V]) Range(f func(k keys.Key, v *V) bool) {
	for i := range t.entries {
		if !f(t.entries[i].key, &t.entries[i].val) {
			return
		}
	}
}

// Keys returns all keys in insertion order.
func (t *Table[V]) Keys() []keys.Key {
	out := make([]keys.Key, len(t.entries))
	for i := range t.entries {
		out[i] = t.entries[i].key
	}
	return out
}

// MaxChain returns the length of the longest collision chain; used by
// tests and the hash ablation bench.
func (t *Table[V]) MaxChain() int {
	max := 0
	for _, head := range t.buckets {
		n := 0
		for i := head; i >= 0; i = t.entries[i].next {
			n++
		}
		if n > max {
			max = n
		}
	}
	return max
}
