// Stable parallel LSD radix sort over the Morton keys. The paper
// treats body ordering as the inner loop of the domain decomposition
// ("practically identical to a parallel sorting algorithm"), so the
// sort must cost a few linear passes, not an O(N log N) comparison
// sort that swaps every SoA column per exchange. A Sorter computes a
// permutation by sorting (Key, ID) pairs digit by digit and applies
// it with one gather pass per column; across timesteps Resort repairs
// a nearly sorted array by extracting the displaced bodies and
// merging them back.
//
// Ordering contract: ascending Key, ties broken by ascending ID.
// The tie-break makes the order deterministic (package sort's
// introsort is unstable under equal keys); every key-sorted consumer
// only needs ascending keys, so the refinement is invisible to them.
package core

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/keys"
	"repro/internal/vec"
)

// sortSerialBelow is the size under which the per-pass goroutine
// fan-out costs more than it saves and the Sorter stays serial.
const sortSerialBelow = 1 << 13

// Sorter sorts a System's bodies into (Key, ID) order. It owns the
// permutation, histogram and per-column gather scratch, so a Sorter
// reused across timesteps allocates nothing in steady state. A Sorter
// is not safe for concurrent use; distinct ranks use distinct Sorters.
type Sorter struct {
	// Workers caps the sorting goroutines. 0 means automatic
	// (GOMAXPROCS, capped); 1 forces the serial path.
	Workers int

	perm, permTmp []int32
	vals, valsTmp []uint64
	hist          [][256]int32
	orw, andw     []uint64

	kept, disp []int32

	sPos, sVel, sAcc, sAlpha []vec.V3
	sMass, sWork, sPot, sH   []float64
	sRho                     []float64
	sKey                     []keys.Key
	sID                      []int64
	sRung                    []uint8
}

// workers picks the fan-out for an n-element pass.
func (st *Sorter) workers(n int) int {
	if n < sortSerialBelow {
		return 1
	}
	w := st.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if w > 8 {
			w = 8
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelRanges splits [0,n) into workers contiguous chunks and runs
// fn on each. The chunk boundaries are a pure function of (workers, n)
// so the histogram and scatter passes of one radix digit agree.
func parallelRanges(workers, n int, fn func(w, lo, hi int)) {
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
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
	w := st.workers(n)
	if len(st.hist) < w {
		st.hist = make([][256]int32, w)
		st.orw = make([]uint64, w)
		st.andw = make([]uint64, w)
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
	w := st.workers(n)
	orv, andv := uint64(0), ^uint64(0)
	if w == 1 {
		for _, v := range st.vals[:n] {
			orv |= v
			andv &= v
		}
	} else {
		vals := st.vals[:n]
		parallelRanges(w, n, func(wi, lo, hi int) {
			o, a := uint64(0), ^uint64(0)
			for _, v := range vals[lo:hi] {
				o |= v
				a &= v
			}
			st.orw[wi], st.andw[wi] = o, a
		})
		for wi := 0; wi < w; wi++ {
			orv |= st.orw[wi]
			andv &= st.andw[wi]
		}
	}
	for shift := uint(0); shift < 64; shift += 8 {
		if (orv>>shift)&0xff == (andv>>shift)&0xff {
			continue // all values share this byte
		}
		st.radixPass(n, w, shift)
	}
}

// radixPass is one stable counting pass on byte (vals >> shift). The
// per-chunk histograms are recomputed every pass: the element
// arrangement changes between passes, so per-chunk scatter offsets
// from an earlier arrangement would not be stable. The serial path
// avoids the dispatch closures entirely (they heap-allocate), keeping
// a reused Sorter allocation-free in steady state.
func (st *Sorter) radixPass(n, w int, shift uint) {
	if w == 1 {
		st.countChunk(0, 0, n, shift)
		st.mergeOffsets(1)
		st.scatterChunk(0, 0, n, shift)
	} else {
		parallelRanges(w, n, func(wi, lo, hi int) { st.countChunk(wi, lo, hi, shift) })
		st.mergeOffsets(w)
		parallelRanges(w, n, func(wi, lo, hi int) { st.scatterChunk(wi, lo, hi, shift) })
	}
	st.vals, st.valsTmp = st.valsTmp, st.vals
	st.perm, st.permTmp = st.permTmp, st.perm
}

func (st *Sorter) countChunk(wi, lo, hi int, shift uint) {
	h := &st.hist[wi]
	*h = [256]int32{}
	for _, v := range st.vals[lo:hi] {
		h[uint8(v>>shift)]++
	}
}

// mergeOffsets turns the per-chunk counts into exclusive scatter
// offsets: chunk wi's run of byte b lands after every chunk's smaller
// bytes and after earlier chunks' runs of b -- the stable order.
func (st *Sorter) mergeOffsets(w int) {
	hist := st.hist[:w]
	pos := int32(0)
	for b := 0; b < 256; b++ {
		for wi := 0; wi < w; wi++ {
			c := hist[wi][b]
			hist[wi][b] = pos
			pos += c
		}
	}
}

func (st *Sorter) scatterChunk(wi, lo, hi int, shift uint) {
	h := &st.hist[wi]
	vals, perm := st.vals, st.perm
	tmpV, tmpP := st.valsTmp, st.permTmp
	for i := lo; i < hi; i++ {
		b := uint8(vals[i] >> shift)
		d := h[b]
		h[b]++
		tmpV[d] = vals[i]
		tmpP[d] = perm[i]
	}
}

// gather copies src[perm[i]] into dst[i].
func gather[T any](dst, src []T, perm []int32) {
	for i, p := range perm {
		dst[i] = src[p]
	}
}

// Apply permutes every non-nil column of s by perm (body i of the
// result is body perm[i] of the input) with one parallel gather pass
// per column, then swaps the gathered arrays into the System. The
// previous backing arrays become the Sorter's scratch; callers must
// not hold Slice views across a sort.
func (st *Sorter) Apply(s *System, perm []int32) {
	n := len(perm)
	if n != s.Len() {
		panic("core: permutation length does not match system")
	}
	if n == 0 {
		return
	}
	// Each column grows independently: the swap below hands the
	// System's old arrays to the scratch, and arrays of different
	// element sizes do not share append's capacity growth, so the
	// scratch capacities diverge across calls.
	st.sPos = grow(st.sPos, n)
	st.sMass = grow(st.sMass, n)
	st.sKey = grow(st.sKey, n)
	st.sWork = grow(st.sWork, n)
	st.sID = grow(st.sID, n)
	if s.Vel != nil {
		st.sVel = grow(st.sVel, n)
	}
	if s.Acc != nil {
		st.sAcc = grow(st.sAcc, n)
	}
	if s.Alpha != nil {
		st.sAlpha = grow(st.sAlpha, n)
	}
	if s.Pot != nil {
		st.sPot = grow(st.sPot, n)
	}
	if s.H != nil {
		st.sH = grow(st.sH, n)
	}
	if s.Rho != nil {
		st.sRho = grow(st.sRho, n)
	}
	if s.Rung != nil {
		st.sRung = grow(st.sRung, n)
	}

	if w := st.workers(n); w == 1 {
		st.applyChunk(s, perm, 0, n)
	} else {
		parallelRanges(w, n, func(_, lo, hi int) { st.applyChunk(s, perm, lo, hi) })
	}

	s.Pos, st.sPos = st.sPos, s.Pos
	s.Mass, st.sMass = st.sMass, s.Mass
	s.Key, st.sKey = st.sKey, s.Key
	s.Work, st.sWork = st.sWork, s.Work
	s.ID, st.sID = st.sID, s.ID
	if s.Vel != nil {
		s.Vel, st.sVel = st.sVel, s.Vel
	}
	if s.Acc != nil {
		s.Acc, st.sAcc = st.sAcc, s.Acc
	}
	if s.Alpha != nil {
		s.Alpha, st.sAlpha = st.sAlpha, s.Alpha
	}
	if s.Pot != nil {
		s.Pot, st.sPot = st.sPot, s.Pot
	}
	if s.H != nil {
		s.H, st.sH = st.sH, s.H
	}
	if s.Rho != nil {
		s.Rho, st.sRho = st.sRho, s.Rho
	}
	if s.Rung != nil {
		s.Rung, st.sRung = st.sRung, s.Rung
	}
}

func grow[T any](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	return sl[:n]
}

// applyChunk gathers rows [lo,hi) of every non-nil column into the
// Sorter's scratch arrays.
func (st *Sorter) applyChunk(s *System, perm []int32, lo, hi int) {
	p := perm[lo:hi]
	gather(st.sPos[lo:hi], s.Pos, p)
	gather(st.sMass[lo:hi], s.Mass, p)
	gather(st.sKey[lo:hi], s.Key, p)
	gather(st.sWork[lo:hi], s.Work, p)
	gather(st.sID[lo:hi], s.ID, p)
	if s.Vel != nil {
		gather(st.sVel[lo:hi], s.Vel, p)
	}
	if s.Acc != nil {
		gather(st.sAcc[lo:hi], s.Acc, p)
	}
	if s.Alpha != nil {
		gather(st.sAlpha[lo:hi], s.Alpha, p)
	}
	if s.Pot != nil {
		gather(st.sPot[lo:hi], s.Pot, p)
	}
	if s.H != nil {
		gather(st.sH[lo:hi], s.H, p)
	}
	if s.Rho != nil {
		gather(st.sRho[lo:hi], s.Rho, p)
	}
	if s.Rung != nil {
		gather(st.sRung[lo:hi], s.Rung, p)
	}
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
// after the first timestep). It scans once, extracts the displaced
// bodies (those breaking the running order), sorts just those, and
// merges them back; if more than a quarter of the bodies are
// displaced it falls back to a full radix sort. Returns the number of
// displaced bodies (n means a full sort ran).
func (st *Sorter) Resort(s *System) int {
	n := s.Len()
	if n < 2 {
		return 0
	}
	st.kept = st.kept[:0]
	st.disp = st.disp[:0]
	maxK, maxID := s.Key[0], s.ID[0]
	st.kept = append(st.kept, 0)
	for i := 1; i < n; i++ {
		if s.Key[i] < maxK || (s.Key[i] == maxK && s.ID[i] < maxID) {
			st.disp = append(st.disp, int32(i))
		} else {
			maxK, maxID = s.Key[i], s.ID[i]
			st.kept = append(st.kept, int32(i))
		}
	}
	d := len(st.disp)
	if d == 0 {
		return 0
	}
	if d > n/4 {
		st.Sort(s)
		return n
	}
	disp := st.disp
	sort.Slice(disp, func(a, b int) bool { return lessAt(s, disp[a], disp[b]) })
	// The kept subsequence is (Key, ID)-sorted by construction of the
	// running-max scan, so a two-way merge with the sorted displaced
	// list is the full stable order.
	st.ensure(n)
	perm := st.perm[:n]
	kept := st.kept
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
// parallel radix sort; equal keys are ordered by ID. Long-lived
// pipelines hold their own Sorter; this entry point serves everyone
// else from a pool.
func (s *System) SortByKey() {
	st := sorters.Get().(*Sorter)
	st.Sort(s)
	sorters.Put(st)
}
