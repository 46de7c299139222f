// Package domain implements the work-weighted domain decomposition:
// bodies are ordered along the Morton curve and the curve is cut into
// Np contiguous intervals of equal *work* (not equal count), so that
// the expensive clustered regions spread across processors. The paper
// describes this as "practically identical to a parallel sorting
// algorithm, with the modification that the amount of data that ends
// up in each processor is weighted by the work associated with each
// item".
//
// Like a sample sort, the splitter search costs a fixed number of
// collectives whatever the key width, N or Np: an exact selection
// among the offsets where the work below can change, narrowed by
// samples first and settled by the few bodies left in between
// (sampleSplits; two allgathers, two vector allreduces). Work is a
// count (core.System.Work), so every sum of it is exact, in whatever
// order a reduction adds it. Bodies then move in one exchange, a batch
// from every rank to every other: the view of the columns its bodies
// carry (core.System.Carried), which the receiver copies into one
// system and orders with the local order's repair (core.Sorter.Resort:
// the batches arrive sorted, in rank order). There is no body record
// and no body order here but core's.
//
// The paper's other observation is that the decomposition changes
// slowly between timesteps, so a persistent Decomposer works
// incrementally: the local order is repaired instead of re-sorted, its
// scratch is reused across calls, and the splitter search itself is
// one allgather (hintedSplits): after an exchange every rank holds one
// interval of the curve, so the next splitters fall where two
// neighbours' intervals meet, among the first and last few bodies of
// each rank. Publishing those is enough to evaluate the full search's
// sums at every offset that can matter, in one pass, and to know when
// it was not enough: the search then runs in full. The splits are the
// same bits either way, a function of the bodies and Np, never of what
// the previous step left behind; only the count of collectives differs
// (Stats.Rounds: 1 on a hit, 4 cold, 5 on a miss). The same windows say
// who can hold bodies for whom, so after a hit the exchange carries
// only those batches (Decomposer.plan): on a warm step most pairs of
// ranks have nothing to send each other, and under latency an empty
// message waits like a full one (Stats.Batches counts what was sent).
//
// The keys are quantized in keys.DomainOf the global bounding box, a
// rule that snaps the cube to a lattice and a ladder of sizes, so it
// stays the same bits while the bodies move a little. A cold
// decomposition allreduces the box first (GlobalDomain); a warm one
// (DecomposeGlobal) keys with the domain it returned last and publishes
// its local box on the splitter allgather, from which every rank
// computes the true domain. When the prediction missed, every rank
// re-keys and searches again (Stats.Relocated), so the domain, like the
// splits, is a function of the bodies alone.
//
// There is one decomposition: a block-timestep partial evaluation runs
// DecomposeGlobal like a full one, so its domain and splits are those a
// cold decomposer finds over the same bodies and their Work, and its
// collectives are a warm step's.
package domain

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
)

// Result is the outcome of a decomposition.
type Result struct {
	// Sys holds this rank's new bodies, key-sorted.
	Sys *core.System
	// Splits has length P+1: rank r owns key offsets
	// [Splits[r], Splits[r+1]).
	Splits []uint64
	// Moved counts bodies that changed ranks (this rank's sends).
	Moved int
	// Domain is the key domain Sys is keyed and sorted in.
	Domain keys.Domain
}

// samplesPerRank is how many evenly spaced local bodies each rank
// offers in the first pass of the splitter search, which then probes
// Np*samplesPerRank+1 offsets.
const samplesPerRank = 64

// hintWindow is how many bodies from each end of its sorted list a
// rank publishes to the one-allgather search: 2 KB a rank, about what
// the first pass of the full search sends. Chosen from how deep into a
// rank's list the bracket of a splitter reaches, measured per splitter
// on the two distributed benchmark workloads (Plummer, np = 4, dt =
// 1e-3; EXPERIMENTS.md "Six collectives"): at N = 10 000 p50 4 to 7,
// p90 8 to 12, largest 33; at N = 5 000 p50 3 to 4, p90 6 to 11,
// largest 34; at dt = 5e-3 largest 36. Only the first step after a
// first evaluation reaches further (100 to 1 600 bodies: work goes
// from all-equal to counted interactions and every splitter jumps),
// and that step runs the full search.
const hintWindow = 64

// Stats describes the most recent Decompose call of a Decomposer.
type Stats struct {
	// Displaced is the number of out-of-order bodies the pre-exchange
	// repair extracted; equal to the body count when it fell back to a
	// full sort.
	Displaced int
	// Rounds is the number of collectives the splitter search issued:
	// 1 when the one-allgather search of a warm decomposer settled every
	// splitter, 5 when it could not and the full search followed, 4 for
	// the full search of a cold one, 0 on one rank; one more when the
	// search ran again after Relocated.
	Rounds int
	// Batches is the number of body batches this rank sent in the
	// exchange: one to every other rank after a full search, only those
	// the windows say may hold bodies after a settled one-allgather
	// search (Decomposer.plan).
	Batches int
	// Relocated reports that DecomposeGlobal's predicted domain was not
	// the bodies' (the boxes gathered on the splitter search named
	// another), so every rank re-keyed and searched again.
	Relocated bool
}

// Decomposer carries the cross-step state of the incremental
// decomposition: the sorter scratch, the rank count it last decomposed
// for, and every reusable buffer. One Decomposer per rank; the zero
// value is a cold decomposer. The one-shot Decompose function wraps it.
type Decomposer struct {
	// Sub, when non-nil, accumulates the sorting share of the
	// construction pipeline under the phase "treebuild/sort".
	Sub *diag.Timer
	// Last describes the most recent call.
	Last Stats

	sorter core.Sorter
	warm   int         // the rank count of the last exchange, 0 before one
	dom    keys.Domain // the domain of this call, then the last returned
	check  bool        // dom is a prediction the next hinted search checks
	box    keys.Box    // this rank's bounding box, published when checking

	pw     []uint64  // work below each local body, and of all of them
	mine   []uint64  // this rank's candidates of a search pass
	cand   []uint64  // every rank's, merged: identical on all ranks
	sums   []uint64  // work below each of cand
	below  []uint64  // per splitter, an offset known to lie below it
	edges  [2][]edge // this rank's published bodies, by parity of hinted
	hinted int       // one-allgather searches run
	cover  []int32   // per candidate: unpublished interiors holding it
	wins   []window  // every rank's, when the last search settled in one allgather
	sends  []bool    // the exchange plan, row-major by (sender, receiver)
	send   [][]core.System
}

// Decompose redistributes bodies so every rank owns a contiguous
// Morton interval of roughly equal total Work. Order contract: the
// returned system is sorted by (Key, ID), exactly as core.Sorter
// produces, regardless of which incremental shortcuts engaged.
//
// The input system is consumed: it is keyed and sorted in place, and on
// more than one rank its columns are sent as they are, views that the
// receiving ranks copy before they leave the exchange. So the caller
// writes none of them again; on one rank the result is the input.
func (dc *Decomposer) Decompose(c *msg.Comm, sys *core.System, d keys.Domain) Result {
	dc.dom, dc.check = d, false
	return dc.decompose(c, sys)
}

// DecomposeGlobal is Decompose in the bodies' own domain, keys.DomainOf
// their global bounding box, which Result.Domain returns. A cold
// decomposer allreduces the box first (GlobalDomain). A warm one saves
// that collective: it keys and sorts with the domain it returned last
// and publishes its local box with its window on the one-allgather
// splitter search, where every rank checks the prediction against the
// union of the gathered boxes. On a miss (Stats.Relocated) every rank
// re-keys in the true domain, re-sorts and searches again, which costs
// the collective the prediction saved. The domain, the keys and the
// splits are therefore those a cold decomposer finds for the same
// bodies, whatever the last call left behind.
func (dc *Decomposer) DecomposeGlobal(c *msg.Comm, sys *core.System) Result {
	if p := c.Size(); p > 1 && dc.warm == p {
		dc.box, dc.check = keys.BoxOf(sys.Pos), true
	} else {
		dc.dom, dc.check = GlobalDomain(c, sys), false
	}
	return dc.decompose(c, sys)
}

// decompose runs search, plan and exchange in dc.dom.
func (dc *Decomposer) decompose(c *msg.Comm, sys *core.System) Result {
	splits := dc.search(c, sys)
	if c.Size() == 1 {
		return dc.keep(sys, splits)
	}
	return dc.exchange(c, sys, splits, dc.plan(splits))
}

// search keys and sorts sys in dc.dom and returns the splits
// selectSplits finds. When the hinted search finds dc.dom was a wrong
// prediction it has set the true one, and the keys, the order and the
// search are done again.
func (dc *Decomposer) search(c *msg.Comm, sys *core.System) []uint64 {
	c.Phase("decompose")
	dc.Last = Stats{}
	dc.wins = nil
	for {
		if dc.Sub != nil {
			dc.Sub.Start("treebuild/sort")
		}
		sys.AssignKeys(dc.dom)
		dc.Last.Displaced = dc.sorter.Resort(sys)
		if dc.Sub != nil {
			dc.Sub.Stop()
		}

		// Local prefix work sums: pw[i] = work of bodies [0, i).
		pw := append(dc.pw[:0], 0)
		for i, w := range sys.Work {
			pw = append(pw, pw[i]+w)
		}
		dc.pw = pw
		if splits := dc.selectSplits(c, sys.Key, pw, c.Size()); splits != nil {
			return splits
		}
		dc.Last.Relocated = true
	}
}

// plan returns the pairs of ranks between which the body exchange runs.
// After a settled one-allgather search every rank holds every rank's
// window, and sender r may hold a body in receiver d's new interval
// [splits[d], splits[d+1]) only if one of r's published offsets lies in
// it or r's unpublished interior overlaps it. That covers every body: a
// body of r's is either published, or lies between the last head body
// and the first tail body of r's sorted list, so its offset lies between
// theirs, and the owner of an offset never falls as the offset rises.
// Every rank evaluates this on the same gathered windows and the same
// splits, so sender and receiver agree on every message without a
// collective, and the bodies packed are the sorted list that was
// published, so none can be bound for a rank the plan leaves out (the
// exchange aborts the world if one is). As the search settles no
// splitter inside an interior (FuzzSelectSplits checks), the interior's
// receiver is also its bounding bodies'; the rule keeps the plan sound
// without leaning on that. Without windows -- a full search, one rank --
// it returns nil: every pair.
func (dc *Decomposer) plan(splits []uint64) msg.Pairs {
	if dc.wins == nil {
		return nil
	}
	p := len(dc.wins)
	owner := func(off uint64) int {
		d, _ := slices.BinarySearch(splits, off+1) // the first split above off
		return d - 1
	}
	sends := append(dc.sends[:0], make([]bool, p*p)...)
	dc.sends = sends
	for r := range dc.wins {
		w := &dc.wins[r]
		row := sends[r*p : (r+1)*p]
		for _, e := range w.edges {
			row[owner(e.off)] = true
		}
		if g := w.gap(); g > 0 {
			for d := owner(w.edges[g-1].off); d <= owner(w.edges[g].off); d++ {
				row[d] = true
			}
		}
	}
	return func(src, dst int) bool { return sends[src*p+dst] }
}

// keep is the exchange on one rank, where no body moves: the keyed,
// sorted input is the result, laid out as the exchange lays out what
// arrives (core.System.Land), with nothing copied.
func (dc *Decomposer) keep(sys *core.System, splits []uint64) Result {
	sys.Land()
	dc.warm = len(splits) - 1
	return Result{Sys: sys, Splits: splits, Domain: dc.dom}
}

// exchange sends every body to the owner of its interval under splits,
// sending and receiving only the batches pairs names (nil: all of them),
// each charged its core.System.Bytes, and orders what arrives.
func (dc *Decomposer) exchange(c *msg.Comm, sys *core.System, splits []uint64, pairs msg.Pairs) Result {
	p, n := c.Size(), sys.Len()
	// Bodies are sorted, so each destination's are one contiguous run.
	// The batch slices are reused: the next call fills them only after a
	// collective that no rank gets past before every receiver has
	// entered it, done reading this call's.
	if len(dc.send) < p {
		dc.send = make([][]core.System, p)
	}
	send := dc.send[:p]
	moved, start := 0, 0
	for r := range send {
		end := start
		for end < n && tree.KeyOffset(sys.Key[end]) < splits[r+1] {
			end++
		}
		if r != c.Rank() {
			moved += end - start
			if pairs == nil || pairs(c.Rank(), r) {
				dc.Last.Batches++
			}
		}
		send[r] = send[r][:0]
		if end > start {
			send[r] = append(send[r], *sys.Carried(start, end))
		}
		start = end
	}

	recv := msg.AlltoallvFunc(c, send, nil, (*core.System).Bytes, pairs, nil)
	m := 0
	for _, b := range recv {
		for i := range b {
			m += b[i].Len()
		}
	}
	out := sys.Reserve(m)
	for _, b := range recv {
		for i := range b {
			out.AppendRange(&b[i], 0, b[i].Len())
		}
	}
	out.Land()

	if dc.Sub != nil {
		dc.Sub.Start("treebuild/sort")
	}
	out.AssignKeys(dc.dom)
	dc.sorter.Resort(out)
	if dc.Sub != nil {
		dc.Sub.Stop()
	}

	dc.warm = len(splits) - 1
	return Result{Sys: out, Splits: splits, Moved: moved, Domain: dc.dom}
}

// summary is a rank's contribution to one pass of the splitter
// search: its total work and its candidate offsets, ascending.
type summary struct {
	work  uint64
	cands []uint64
}

// selectSplits finds the P-1 interior splitters: splits[s+1] is the
// smallest offset >= 1 below which the global work (the sum of every
// rank's work below it) reaches total*(s+1)/P in float64, or EndOffset
// when none does. That predicate is monotone in the offset and can only
// change at a candidate -- the offset 1 or some body's offset + 1 --
// so it is evaluated at candidates alone. A warm decomposer, whose
// last exchange left every rank one interval of the curve, first asks
// hintedSplits, which answers in one allgather or not at all; the full
// search (sampleSplits) is the answer otherwise, and the only one that
// works on bodies in no particular place: a first evaluation, a
// restart. It returns nil when the hinted search relocated the domain.
func (dc *Decomposer) selectSplits(c *msg.Comm, ks []keys.Key, pw []uint64, p int) []uint64 {
	if p > 1 && dc.warm == p {
		if splits, ok := dc.hintedSplits(c, ks, pw, p); ok {
			return splits
		}
	}
	return dc.sampleSplits(c, ks, pw, p)
}

// edge is one published body: its key offset and the work of this
// rank's bodies below it in the local order.
type edge struct{ off, below uint64 }

// window is a rank's contribution to the one-allgather search: its
// body count, their total work, and the first and last hintWindow
// bodies of its sorted list (all of them when there are no more than
// that), ascending; and its bounding box when the domain is checked.
type window struct {
	n     int
	work  uint64
	edges []edge
	box   keys.Box
}

// gap returns the index in w.edges of the first body after the
// unpublished interior, or -1 when every body is published.
func (w *window) gap() int {
	if len(w.edges) == w.n {
		return -1
	}
	return len(w.edges) / 2
}

// hintedSplits is the splitter search in one allgather. Every rank
// publishes a window; from all of them every rank evaluates, at every
// published candidate, the same sum the full search allreduces, wherever
// that is known (sweep). An unpublished body's candidate lies in its
// rank's interior or equals a published one, so between two adjacent
// published candidates that are both known there is no candidate at
// all, and a splitter whose target is first reached at the upper of
// such a pair is that candidate, exactly as the full search finds it.
// ok is false when some splitter has no such pair: the same verdict on
// every rank, from the same gathered data.
//
// When dc.dom is a prediction the windows carry every rank's box, and
// every rank computes the true domain from their union. If it is not the
// prediction, the keys published are not the bodies': the result is ok
// with no splits, and dc.dom the true domain to search in again.
func (dc *Decomposer) hintedSplits(c *msg.Comm, ks []keys.Key, pw []uint64, p int) (splits []uint64, ok bool) {
	n := len(ks)
	// The gathered windows alias every rank's edges, which are read up
	// to the body exchange, and a rank the sparse exchange does not hold
	// back may start its next search meanwhile. Two buffers in turn are
	// enough: no rank gets past a search's allgather until every rank
	// has entered it, done with the search before.
	dc.hinted++
	buf := &dc.edges[dc.hinted&1]
	edges := (*buf)[:0]
	for i := 0; i < n; i++ {
		if i == hintWindow && n > 2*hintWindow {
			i = n - hintWindow
		}
		edges = append(edges, edge{tree.KeyOffset(ks[i]), pw[i]})
	}
	*buf = edges
	mine, bytes := window{n: n, work: pw[n], edges: edges}, 16+16*len(edges)
	if dc.check {
		mine.box, bytes = dc.box, bytes+boxBytes
	}
	wins := msg.Allgather(c, mine, bytes)
	dc.Last.Rounds++
	if dc.check {
		dc.check = false
		box := keys.EmptyBox()
		for i := range wins {
			box = box.Union(wins[i].box)
		}
		if d := keys.DomainOf(box); d != dc.dom {
			dc.dom = d
			return nil, true
		}
	}

	total := dc.sweep(wins)
	cand, sums, cover := dc.cand, dc.sums, dc.cover

	// Targets rise with s, so the scan never goes back. The last
	// candidate lies above every body and is known to every rank: a
	// target it does not reach is reached nowhere.
	splits = make([]uint64, p+1)
	splits[p] = tree.EndOffset
	k := 0
	for s := 0; s < p-1; s++ {
		tgt := float64(total) * float64(s+1) / float64(p)
		for k < len(cand) && (cover[k] > 0 || float64(sums[k]) < tgt) {
			k++
		}
		switch {
		case k == len(cand):
			splits[s+1] = tree.EndOffset
		case k > 0 && cover[k-1] > 0:
			return nil, false
		default:
			splits[s+1] = cand[k]
		}
	}
	dc.wins = wins
	return splits, true
}

// sweep merges the gathered windows' candidates into dc.cand (the
// offset 1 and each published body's offset + 1) and returns the total
// work. At each candidate it leaves in dc.sums every rank's work below
// it, and in dc.cover how many ranks' terms are unknown there: those
// whose unpublished interior holds it, above the last head body and not
// above the first tail body. Each is one prefix sum over a difference
// array: rank r's term steps up at each published body's candidate by
// the work up to r's next published body (after the last head body, the
// interior's too), and r's interior adds 1 at its last head body's
// candidate and takes it away at its first tail body's.
func (dc *Decomposer) sweep(wins []window) (total uint64) {
	cand := append(dc.cand[:0], 1)
	for i := range wins {
		total += wins[i].work
		for _, e := range wins[i].edges {
			cand = append(cand, e.off+1)
		}
	}
	slices.Sort(cand)
	cand = slices.Compact(cand)
	sums := append(dc.sums[:0], make([]uint64, len(cand))...)
	cover := append(dc.cover[:0], make([]int32, len(cand))...)
	dc.cand, dc.sums, dc.cover = cand, sums, cover
	at := func(e edge) int { k, _ := slices.BinarySearch(cand, e.off+1); return k }
	for r := range wins {
		w := &wins[r]
		next := w.work // below r's next published body, or below none
		for j := len(w.edges) - 1; j >= 0; j-- {
			e := w.edges[j]
			sums[at(e)] += next - e.below
			next = e.below
		}
		if g := w.gap(); g > 0 {
			cover[at(w.edges[g-1])]++
			cover[at(w.edges[g])]--
		}
	}
	for k := 1; k < len(cand); k++ {
		sums[k] += sums[k-1]
		cover[k] += cover[k-1]
	}
	return total
}

// sampleSplits is the full splitter search, in two passes of one
// allgather and one allreduce each. In the first every rank offers
// samplesPerRank evenly spaced bodies, which narrows each bracket to
// two adjacent samples, at most ceil(n/samplesPerRank) bodies per
// rank apart; in the second it offers every body still inside.
//
// Splitter s is bracketed by (lo[s], hi[s]]: the work below lo is
// short of the target, hi is the answer unless a candidate in between
// already reaches it. hi narrows in place in the result.
func (dc *Decomposer) sampleSplits(c *msg.Comm, ks []keys.Key, pw []uint64, p int) []uint64 {
	splits := make([]uint64, p+1)
	for s := 1; s <= p; s++ {
		splits[s] = tree.EndOffset
	}
	if p == 1 {
		return splits
	}
	dc.below = append(dc.below[:0], make([]uint64, p-1)...)
	lo, hi := dc.below, splits[1:p]
	for pass := 0; pass < 2; pass++ {
		// Targets rise with s, so brackets repeat or move right:
		// each is searched once and the candidates come out sorted.
		mine := dc.mine[:0]
		for s := range lo {
			if s > 0 && lo[s-1] == lo[s] {
				continue
			}
			first := searchOffset(ks, lo[s])
			m := searchOffset(ks, hi[s]-1) - first // lo < offset+1 < hi
			k := m
			if pass == 0 {
				k = min(m, samplesPerRank)
			}
			for j := 0; j < k; j++ {
				mine = append(mine, tree.KeyOffset(ks[first+j*m/k])+1)
			}
		}
		mine = slices.Compact(mine)
		dc.mine = mine
		var total uint64
		cand := append(dc.cand[:0], 1)
		for _, a := range msg.Allgather(c, summary{work: pw[len(ks)], cands: mine}, 8+8*len(mine)) {
			total += a.work
			cand = append(cand, a.cands...)
		}
		slices.Sort(cand)
		cand = slices.Compact(cand)
		dc.cand = cand

		// Work below every candidate, summed over ranks into rank 0's
		// vector. The sums alias that scratch: rank 0 refills it only
		// after the next allgather, which no rank enters before it is
		// done reading.
		sums := dc.sums[:0]
		for _, off := range cand {
			sums = append(sums, pw[searchOffset(ks, off)])
		}
		dc.sums = sums
		sums = msg.Allreduce(c, sums, addVec, 8*len(sums))
		dc.Last.Rounds += 2

		// The sums rise with the candidates, so the first candidate in
		// (lo, hi) whose sum reaches the target is found by bisection: hi
		// narrows to it and lo to the candidate before it, if that is in
		// the bracket too. Each search is O(log) in the candidates, not a
		// scan of its bracket, which in the first pass is all of them.
		for s := range lo {
			tgt := float64(total) * float64(s+1) / float64(p)
			a, _ := slices.BinarySearch(cand, lo[s]+1)
			b, _ := slices.BinarySearch(cand[a:], hi[s])
			k := a + sort.Search(b, func(j int) bool { return float64(sums[a+j]) >= tgt })
			if k > a {
				lo[s] = cand[k-1]
			}
			if k < a+b {
				hi[s] = cand[k]
			}
		}
	}
	return splits
}

// searchOffset returns the first index whose key offset is >= off.
func searchOffset(ks []keys.Key, off uint64) int {
	lo, hi := 0, len(ks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tree.KeyOffset(ks[mid]) < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Decompose is the one-shot entry point: a fresh (cold) Decomposer
// per call, byte-identical to the historical function.
func Decompose(c *msg.Comm, sys *core.System, d keys.Domain) Result {
	return new(Decomposer).Decompose(c, sys, d)
}

// addVec accumulates b into a: the reduction's accumulator is the
// root's own probe vector, so nothing is allocated.
func addVec(a, b []uint64) []uint64 {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// boxBytes is a keys.Box on the wire: two coordinate triples.
const boxBytes = 48

// GlobalDomain is keys.DomainOf the bounding box of bodies distributed
// across ranks, allreduced, so every rank quantizes keys identically and
// as keys.NewDomain does over all of them.
func GlobalDomain(c *msg.Comm, sys *core.System) keys.Domain {
	return keys.DomainOf(msg.Allreduce(c, keys.BoxOf(sys.Pos), keys.Box.Union, boxBytes))
}
