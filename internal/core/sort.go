// Stable LSD radix sort over the Morton keys. The paper
// treats body ordering as the inner loop of the domain decomposition
// ("practically identical to a parallel sorting algorithm"), so the
// sort must cost a few linear passes, not an O(N log N) comparison
// sort that swaps every SoA column per exchange. A Sorter computes a
// permutation by sorting (Key, ID) pairs digit by digit and applies
// it with one gather pass per column; across timesteps Resort repairs
// a nearly sorted array by extracting the displaced bodies and
// merging them back, and so does every order the domain exchange
// leaves behind (its batches arrive sorted, in rank order). Sorter is
// the one body order: no other package compares (Key, ID).
//
// Ordering contract: ascending Key, ties broken by ascending ID.
// The tie-break makes the order deterministic (package sort's
// introsort is unstable under equal keys); every key-sorted consumer
// only needs ascending keys, so the refinement is invisible to them.
package core

import (
	"math"
	"sort"
	"sync"

	"repro/internal/keys"
	"repro/internal/vec"
)

// Sorter sorts a System's bodies into (Key, ID) order. It owns the
// permutation, histogram and per-column gather scratch, so a Sorter
// reused across timesteps allocates nothing in steady state. It runs on
// the caller's goroutine: ranks are the unit of parallelism, and a rank
// that fanned out here would only contend with the others. A Sorter is
// not safe for concurrent use; distinct ranks use distinct Sorters.
type Sorter struct {
	perm, permTmp []int32
	vals, valsTmp []uint64
	hist          [256]int32

	kept, disp []int32

	sPos, sVel, sAcc, sAlpha []vec.V3
	sPos0, sAlpha0           []vec.V3
	sMass, sWork, sPot, sH   []float64
	sRho                     []float64
	sKey                     []keys.Key
	sID                      []int64
	sRung                    []uint8
}

func (st *Sorter) ensure(n int) {
	if n > math.MaxInt32 {
		panic("core: Sorter supports at most 2^31-1 bodies")
	}
	if cap(st.perm) < n {
		st.perm = make([]int32, n)
		st.permTmp = make([]int32, n)
		st.vals = make([]uint64, n)
		st.valsTmp = make([]uint64, n)
	}
}

// signFlip maps an int64 onto a uint64 whose unsigned order matches
// the signed order (IDs are non-negative everywhere in this codebase,
// but the sort should not silently depend on that).
const signFlip = uint64(1) << 63

// Sort reorders s into ascending (Key, ID) order. Keys must already
// be assigned; Sort touches every non-nil column exactly once, in the
// final gather.
func (st *Sorter) Sort(s *System) {
	n := s.Len()
	if n < 2 {
		return
	}
	st.ensure(n)
	perm := st.perm[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	// Secondary digit first: a stable pass over the IDs, then stable
	// passes over the keys, leaves equal keys in ID order. When the
	// IDs are already ascending in array order (fresh systems, and
	// every array this Sorter produced), the identity permutation is
	// the ID sort and the first phase is free.
	ascending := true
	for i := 1; i < n; i++ {
		if s.ID[i] < s.ID[i-1] {
			ascending = false
			break
		}
	}
	if !ascending {
		vals := st.vals[:n]
		for i := range vals {
			vals[i] = uint64(s.ID[i]) ^ signFlip
		}
		st.radixSort(n)
	}
	perm = st.perm[:n]
	vals := st.vals[:n]
	for i := range vals {
		vals[i] = uint64(s.Key[perm[i]])
	}
	st.radixSort(n)
	st.Apply(s, st.perm[:n])
}

// radixSort stably sorts st.perm[:n] by st.vals[:n] (the value array
// is permuted alongside). Bytes on which every value agrees are
// skipped, so a key set spanning few octant levels costs few passes.
func (st *Sorter) radixSort(n int) {
	orv, andv := uint64(0), ^uint64(0)
	for _, v := range st.vals[:n] {
		orv |= v
		andv &= v
	}
	for shift := uint(0); shift < 64; shift += 8 {
		if (orv>>shift)&0xff == (andv>>shift)&0xff {
			continue // all values share this byte
		}
		st.radixPass(n, shift)
	}
}

// radixPass is one stable counting pass on byte (vals >> shift): count,
// turn the counts into exclusive offsets, scatter in array order.
func (st *Sorter) radixPass(n int, shift uint) {
	h := &st.hist
	*h = [256]int32{}
	vals, perm := st.vals[:n], st.perm[:n]
	for _, v := range vals {
		h[uint8(v>>shift)]++
	}
	pos := int32(0)
	for b, c := range h {
		h[b] = pos
		pos += c
	}
	tmpV, tmpP := st.valsTmp, st.permTmp
	for i, v := range vals {
		b := uint8(v >> shift)
		d := h[b]
		h[b]++
		tmpV[d] = v
		tmpP[d] = perm[i]
	}
	st.vals, st.valsTmp = st.valsTmp, st.vals
	st.perm, st.permTmp = st.permTmp, st.perm
}

// permute gathers col[perm[i]] into scratch[i] and hands back the two
// exchanged: the gathered array is the column now, the column's old
// array the scratch of the next call. Each column's scratch grows on
// its own (arrays of different element sizes do not share append's
// capacity growth). A nil column stays nil.
func permute[T any](col, scratch []T, perm []int32) (gathered, old []T) {
	if col == nil {
		return nil, scratch
	}
	if cap(scratch) < len(perm) {
		scratch = make([]T, len(perm))
	}
	scratch = scratch[:len(perm)]
	for i, p := range perm {
		scratch[i] = col[p]
	}
	return scratch, col
}

// Apply permutes every non-nil column of s by perm (body i of the
// result is body perm[i] of the input) with one gather pass per column
// into the Sorter's scratch, which then becomes the column. Callers
// must not hold Slice views across a sort.
func (st *Sorter) Apply(s *System, perm []int32) {
	if len(perm) != s.Len() {
		panic("core: permutation length does not match system")
	}
	s.Pos, st.sPos = permute(s.Pos, st.sPos, perm)
	s.Mass, st.sMass = permute(s.Mass, st.sMass, perm)
	s.Key, st.sKey = permute(s.Key, st.sKey, perm)
	s.Work, st.sWork = permute(s.Work, st.sWork, perm)
	s.ID, st.sID = permute(s.ID, st.sID, perm)
	s.Vel, st.sVel = permute(s.Vel, st.sVel, perm)
	s.Acc, st.sAcc = permute(s.Acc, st.sAcc, perm)
	s.Alpha, st.sAlpha = permute(s.Alpha, st.sAlpha, perm)
	s.Pot, st.sPot = permute(s.Pot, st.sPot, perm)
	s.H, st.sH = permute(s.H, st.sH, perm)
	s.Rho, st.sRho = permute(s.Rho, st.sRho, perm)
	s.Rung, st.sRung = permute(s.Rung, st.sRung, perm)
	s.Pos0, st.sPos0 = permute(s.Pos0, st.sPos0, perm)
	s.Alpha0, st.sAlpha0 = permute(s.Alpha0, st.sAlpha0, perm)
}

// lessAt orders bodies i, j of s by (Key, ID).
func lessAt(s *System, i, j int32) bool {
	if s.Key[i] != s.Key[j] {
		return s.Key[i] < s.Key[j]
	}
	return s.ID[i] < s.ID[j]
}

// Resort restores (Key, ID) order after keys changed for a fraction
// of the bodies (one dynamics step moves few bodies across cell
// boundaries -- the paper's observation that the sort is nearly free
// after the first timestep). It scans once, keeping a sorted
// subsequence and displacing the bodies that break it, sorts just the
// displaced, and merges them back; if more than a quarter of the bodies
// are displaced it falls back to a full radix sort. A body below the
// last kept one is displaced, unless it is not below the one kept
// before: then the last kept body jumped ahead and is displaced
// instead, so one body that jumped ahead costs one displacement, not
// the stretch behind it. Returns the number of displaced bodies (n
// means a full sort ran).
func (st *Sorter) Resort(s *System) int {
	n := s.Len()
	if n < 2 {
		return 0
	}
	kept, disp := append(st.kept[:0], 0), st.disp[:0]
	for i := int32(1); i < int32(n); i++ {
		k := len(kept) - 1
		switch {
		case !lessAt(s, i, kept[k]):
			kept = append(kept, i)
		case k == 0 || !lessAt(s, i, kept[k-1]):
			// The last kept body jumped ahead: it goes, i stays.
			disp = append(disp, kept[k])
			kept[k] = i
		default:
			disp = append(disp, i)
		}
	}
	st.kept, st.disp = kept, disp
	d := len(disp)
	if d == 0 {
		return 0
	}
	if d > n/4 {
		st.Sort(s)
		return n
	}
	sort.Slice(disp, func(a, b int) bool { return lessAt(s, disp[a], disp[b]) })
	// The kept subsequence is (Key, ID)-sorted by construction of the
	// scan, so a two-way merge with the sorted displaced list is the
	// full stable order.
	st.ensure(n)
	perm := st.perm[:n]
	i, j := 0, 0
	for k := range perm {
		if j >= len(disp) || (i < len(kept) && lessAt(s, kept[i], disp[j])) {
			perm[k] = kept[i]
			i++
		} else {
			perm[k] = disp[j]
			j++
		}
	}
	st.Apply(s, perm)
	return d
}

// sorters backs SortByKey so transient call sites (serial driver,
// tests, tools) still amortize the Sorter scratch.
var sorters = sync.Pool{New: func() any { return new(Sorter) }}

// SortByKey sorts the bodies into ascending key order with a stable
// radix sort; equal keys are ordered by ID. Long-lived
// pipelines hold their own Sorter; this entry point serves everyone
// else from a pool.
func (s *System) SortByKey() {
	st := sorters.Get().(*Sorter)
	st.Sort(s)
	sorters.Put(st)
}
