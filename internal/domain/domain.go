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
// (sampleSplits; two allgathers, two vector allreduces). Bodies then
// move in one exchange, a batch from every rank to every other.
//
// The paper's other observation is that the decomposition changes
// slowly between timesteps, so a persistent Decomposer works
// incrementally: the local order is repaired (core.Sorter.Resort)
// instead of re-sorted, the prefix/sample/probe/send scratch is reused
// across calls, and the splitter search itself is one allgather
// (hintedSplits): after an exchange every rank holds one interval of
// the curve, so the next splitters fall where two neighbours' intervals
// meet, among the first and last few bodies of each rank. Publishing
// those is enough to evaluate the same rank-ordered work sums the full
// search reduces, at every offset that can matter, and to know when it
// was not enough: the search then runs in full. The splits are the same
// bits either way -- a function of the bodies and Np, never of what the
// previous step left behind; only the count of collectives differs
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
package domain

import (
	"slices"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Wire is the packed body record moved during the exchange.
type Wire struct {
	Pos, Vel, Alpha vec.V3
	Mass, Work, H   float64
	Rho             float64
	ID              int64
	// Rung is the block-timestep rung, carried so a body that strays
	// across a rank boundary mid-step keeps its sub-step schedule.
	Rung uint8
}

// WireBytes is the logical size of one Wire on the network (13
// float64 triples/scalars + id + one rung byte).
const WireBytes = 14*8 + 1

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

// DefaultReuseThreshold is the displaced-body fraction at or below
// which a Reuse decomposition keeps the previous splits. One body in
// twenty crossing a cell boundary between sub-steps barely moves the
// work balance, and the splits are refreshed exactly at every
// synchronization point anyway.
const DefaultReuseThreshold = 0.05

// Stats describes the most recent Decompose call of a Decomposer.
type Stats struct {
	// Displaced is the number of out-of-order bodies the pre-exchange
	// repair extracted; equal to the body count when it fell back to a
	// full sort.
	Displaced int
	// FullSort reports that fallback.
	FullSort bool
	// Rounds is the number of collectives the splitter search issued
	// (the Reuse check included): 1 when the one-allgather search of a
	// warm decomposer settled every splitter, 5 when it could not and
	// the full search followed, 4 for the full search of a cold one, 0
	// on one rank; one more when the search ran again after Relocated.
	Rounds int
	// MergeRuns is the number of non-empty sorted runs the
	// post-exchange merge combined (1 means the order was free).
	MergeRuns int
	// DisplacedFrac is the global fraction of bodies the order repair
	// found displaced, allreduced so every rank sees the same value.
	// Only computed when Reuse is set (it costs the one allreduce that
	// replaces the splitter search).
	DisplacedFrac float64
	// SplitsReused reports that the fast path engaged: the previous
	// splits were kept verbatim and the splitter search was skipped.
	SplitsReused bool
	// Batches is the number of body batches this rank sent in the
	// exchange: one to every other rank after a full search or a Reuse
	// check, only those the windows say may hold bodies after a settled
	// one-allgather search (Decomposer.plan).
	Batches int
	// Relocated reports that DecomposeGlobal's predicted domain was not
	// the bodies' (the boxes gathered on the splitter search named
	// another), so every rank re-keyed and searched again.
	Relocated bool
}

// Decomposer carries the cross-step state of the incremental
// decomposition: the sorter scratch, the previous splits, and every
// reusable buffer. One Decomposer per rank; the zero value is a cold
// decomposer. The one-shot Decompose function wraps it.
type Decomposer struct {
	// Reuse enables the displaced-fraction fast path for the partial
	// force evaluations of block timesteps: when the globally
	// allreduced fraction of displaced bodies is at most
	// ReuseThreshold, the previous call's splits are kept verbatim and
	// the splitter search (and its collectives) is skipped entirely.
	// Bodies that drifted across the kept boundaries are still
	// exchanged, so ownership stays exact; only the load balance goes
	// slightly stale until the next full decomposition. This changes
	// results (the splits), so callers enable it only between
	// synchronization points.
	Reuse bool
	// ReuseThreshold is the displaced fraction at or below which Reuse
	// keeps the previous splits; 0 means DefaultReuseThreshold.
	ReuseThreshold float64
	// Sub, when non-nil, accumulates the sorting share of the
	// construction pipeline under the phase "treebuild/sort".
	Sub *diag.Timer
	// Last describes the most recent call.
	Last Stats

	sorter core.Sorter
	prev   []uint64
	dom    keys.Domain // the domain of this call, then the last returned
	check  bool        // dom is a prediction the next hinted search checks
	box    keys.Box    // this rank's bounding box, published when checking

	pw      []float64
	mine    []uint64  // this rank's candidates of a search pass
	cand    []uint64  // every rank's, merged: identical on all ranks
	sums    []float64 // work below each of cand
	below   []uint64  // per splitter, an offset known to lie below it
	edges   [2][]edge // this rank's published bodies, by parity of hinted
	hinted  int       // one-allgather searches run
	unknown []bool    // per candidate: inside some rank's unpublished interior
	wins    []window  // every rank's, when the last search settled in one allgather
	sends   []bool    // the exchange plan, row-major by (sender, receiver)
	send    [][]Wire
	perm    []int32
	heads   []int
}

// Decompose redistributes bodies so every rank owns a contiguous
// Morton interval of roughly equal total Work. The input system is
// consumed (sorted in place and then repacked). Order contract: the
// returned system is sorted by (Key, ID), exactly as core.Sorter
// produces, regardless of which incremental shortcuts engaged.
func (dc *Decomposer) Decompose(c *msg.Comm, sys *core.System, d keys.Domain) Result {
	dc.dom, dc.check = d, false
	return dc.decompose(c, sys)
}

// DecomposeGlobal is Decompose in the bodies' own domain, keys.DomainOf
// their global bounding box, which Result.Domain returns. A cold
// decomposer, or one with Reuse set, allreduces the box first
// (GlobalDomain). A warm one saves that collective: it keys and sorts
// with the domain it returned last and publishes its local box with its
// window on the one-allgather splitter search, where every rank checks
// the prediction against the union of the gathered boxes. On a miss
// (Stats.Relocated) every rank re-keys in the true domain, re-sorts and
// searches again, which costs the collective the prediction saved. The
// domain, the keys and the splits are therefore those a cold decomposer
// finds for the same bodies, whatever the last call left behind.
func (dc *Decomposer) DecomposeGlobal(c *msg.Comm, sys *core.System) Result {
	if p := c.Size(); p > 1 && len(dc.prev) == p+1 && !dc.Reuse {
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

// search keys and sorts sys in dc.dom and returns the new splits: the
// previous ones when Reuse keeps them, else what selectSplits finds.
// When the hinted search finds dc.dom was a wrong prediction it has set
// the true one, and the keys, the order and the search are done again.
func (dc *Decomposer) search(c *msg.Comm, sys *core.System) []uint64 {
	c.Phase("decompose")
	dc.Last = Stats{}
	dc.wins = nil
	for {
		if splits := dc.searchIn(c, sys); splits != nil {
			return splits
		}
		dc.Last.Relocated = true
	}
}

// searchIn is one attempt of search, nil when it relocated.
func (dc *Decomposer) searchIn(c *msg.Comm, sys *core.System) []uint64 {
	if dc.Sub != nil {
		dc.Sub.Start("treebuild/sort")
	}
	sys.AssignKeys(dc.dom)
	n := sys.Len()
	dc.Last.Displaced = dc.sorter.Resort(sys)
	dc.Last.FullSort = dc.Last.Displaced == n && n > 0
	if dc.Sub != nil {
		dc.Sub.Stop()
	}

	p := c.Size()

	var splits []uint64
	if dc.Reuse && len(dc.prev) == p+1 {
		// Fast path for partial evaluations: one allreduce decides --
		// identically on every rank -- whether few enough bodies moved
		// to keep the previous splits and skip the search.
		thresh := dc.ReuseThreshold
		if thresh <= 0 {
			thresh = DefaultReuseThreshold
		}
		cnt := msg.Allreduce(c, [2]float64{float64(dc.Last.Displaced), float64(n)}, sumPair, 16)
		dc.Last.Rounds++
		if cnt[1] > 0 {
			dc.Last.DisplacedFrac = cnt[0] / cnt[1]
		}
		if cnt[0] <= thresh*cnt[1] {
			dc.Last.SplitsReused = true
			splits = append([]uint64(nil), dc.prev...)
		}
	}
	if splits == nil {
		// Local prefix work sums: pw[i] = work of bodies [0, i).
		if cap(dc.pw) < n+1 {
			dc.pw = make([]float64, n+1)
		}
		pw := dc.pw[:n+1]
		pw[0] = 0
		for i := 0; i < n; i++ {
			pw[i+1] = pw[i] + sys.Work[i]
		}
		splits = dc.selectSplits(c, sys.Key, pw, p)
	}
	return splits
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
// without leaning on that. Without windows -- a full search, a Reuse
// check, one rank -- it returns nil: every pair.
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
// sorted input is the result, with the columns the body wire would have
// carried through exchange -- dynamics, SPH, vortex and rung columns as
// the input has them, accelerations and potentials zeroed, nothing
// else -- and no wire record packed or unpacked.
func (dc *Decomposer) keep(sys *core.System, splits []uint64) Result {
	if sys.Vel != nil || sys.Acc != nil || sys.Pot != nil {
		sys.EnableDynamics()
		clear(sys.Acc)
		clear(sys.Pot)
	}
	if sys.H != nil {
		sys.EnableSPH()
	} else {
		sys.Rho = nil
	}
	if sys.Len() > 1 {
		dc.Last.MergeRuns = 1
	}
	dc.prev = append(dc.prev[:0], splits...)
	return Result{Sys: sys, Splits: splits, Domain: dc.dom}
}

// exchange sends every body to the owner of its interval under splits
// and unpacks what arrives, sending and receiving only the batches pairs
// names (nil: all of them).
func (dc *Decomposer) exchange(c *msg.Comm, sys *core.System, splits []uint64, pairs msg.Pairs) Result {
	p, n := c.Size(), sys.Len()
	// Pack send buffers: bodies are sorted, so each destination's
	// bodies form one contiguous run and a single linear sweep finds
	// every boundary. The buffers are reused across calls: on more than
	// one rank the next call packs only after a collective of its own,
	// which no rank gets past before every receiver has entered it, done
	// reading this call's, so overwriting is safe.
	if len(dc.send) < p {
		dc.send = make([][]Wire, p)
	}
	send := dc.send[:p]
	moved := 0
	start := 0
	for r := 0; r < p; r++ {
		limit := splits[r+1]
		end := start
		for end < n && tree.KeyOffset(sys.Key[end]) < limit {
			end++
		}
		if r != c.Rank() {
			moved += end - start
			if pairs == nil || pairs(c.Rank(), r) {
				dc.Last.Batches++
			}
		}
		buf := send[r][:0]
		for i := start; i < end; i++ {
			w := Wire{Pos: sys.Pos[i], Mass: sys.Mass[i], Work: sys.Work[i], ID: sys.ID[i]}
			if sys.Vel != nil {
				w.Vel = sys.Vel[i]
			}
			if sys.Alpha != nil {
				w.Alpha = sys.Alpha[i]
			}
			if sys.H != nil {
				w.H = sys.H[i]
			}
			if sys.Rho != nil {
				w.Rho = sys.Rho[i]
			}
			if sys.Rung != nil {
				w.Rung = sys.Rung[i]
			}
			buf = append(buf, w)
		}
		send[r] = buf
		start = end
	}

	recv := msg.AlltoallvFunc(c, send, nil, WireBytes, pairs, nil)

	// Unpack, preserving the field configuration of the input.
	m := 0
	for _, b := range recv {
		m += len(b)
	}
	out := core.New(m)
	if sys.Vel != nil || sys.Acc != nil || sys.Pot != nil {
		out.EnableDynamics()
	}
	if sys.Alpha != nil {
		out.EnableVortex()
	}
	if sys.H != nil {
		out.EnableSPH()
	}
	if sys.Rung != nil {
		out.EnableRungs()
	}
	i := 0
	for _, buf := range recv {
		for _, w := range buf {
			out.Pos[i] = w.Pos
			out.Mass[i] = w.Mass
			out.Work[i] = w.Work
			out.ID[i] = w.ID
			if out.Vel != nil {
				out.Vel[i] = w.Vel
			}
			if out.Alpha != nil {
				out.Alpha[i] = w.Alpha
			}
			if out.H != nil {
				out.H[i] = w.H
			}
			if out.Rho != nil {
				out.Rho[i] = w.Rho
			}
			if out.Rung != nil {
				out.Rung[i] = w.Rung
			}
			i++
		}
	}

	if dc.Sub != nil {
		dc.Sub.Start("treebuild/sort")
	}
	out.AssignKeys(dc.dom)
	// The received buffers are P (Key, ID)-sorted runs over this
	// rank's new interval; merging them by run boundary is the full
	// stable sort without sorting anything.
	dc.mergeRuns(out, recv)
	if dc.Sub != nil {
		dc.Sub.Stop()
	}

	dc.prev = append(dc.prev[:0], splits...)
	return Result{Sys: out, Splits: splits, Moved: moved, Domain: dc.dom}
}

// summary is a rank's contribution to one pass of the splitter
// search: its total work and its candidate offsets, ascending.
type summary struct {
	work  float64
	cands []uint64
}

// selectSplits finds the P-1 interior splitters: splits[s+1] is the
// smallest offset >= 1 below which the global work (per-rank prefix
// sums added in rank order) reaches total*(s+1)/P, or EndOffset when
// none does. That predicate is monotone in the offset and can only
// change at a candidate -- the offset 1 or some body's offset + 1 --
// so it is evaluated at candidates alone. A warm decomposer, whose
// last exchange left every rank one interval of the curve, first asks
// hintedSplits, which answers in one allgather or not at all; the full
// search (sampleSplits) is the answer otherwise, and the only one that
// works on bodies in no particular place: a first evaluation, a
// restart. It returns nil when the hinted search relocated the domain.
func (dc *Decomposer) selectSplits(c *msg.Comm, ks []keys.Key, pw []float64, p int) []uint64 {
	if p > 1 && len(dc.prev) == p+1 {
		if splits, ok := dc.hintedSplits(c, ks, pw, p); ok {
			return splits
		}
	}
	return dc.sampleSplits(c, ks, pw, p)
}

// edge is one published body: its key offset and the work of this
// rank's bodies below it in the local order.
type edge struct {
	off   uint64
	below float64
}

// window is a rank's contribution to the one-allgather search: its
// body count, their total work, and the first and last hintWindow
// bodies of its sorted list (all of them when there are no more than
// that), ascending; and its bounding box when the domain is checked.
type window struct {
	n     int
	work  float64
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
// published candidate, the same sum the full search allreduces -- each
// rank's work below the candidate, added in rank order -- wherever that
// is known: rank r's term is unknown exactly for candidates in its
// unpublished interior, above its last published head body and not
// above its first published tail body. An unpublished body's candidate
// lies in its rank's interior or equals a published one, so between two
// adjacent published candidates that are both known there is no
// candidate at all, and a splitter whose target is first reached at the
// upper of such a pair is that candidate, exactly as the full search
// finds it. ok is false when some splitter has no such pair: the same
// verdict on every rank, from the same gathered data.
//
// When dc.dom is a prediction the windows carry every rank's box, and
// every rank computes the true domain from their union. If it is not the
// prediction, the keys published are not the bodies': the result is ok
// with no splits, and dc.dom the true domain to search in again.
func (dc *Decomposer) hintedSplits(c *msg.Comm, ks []keys.Key, pw []float64, p int) (splits []uint64, ok bool) {
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

	total := 0.0
	cand := append(dc.cand[:0], 1)
	for i := range wins {
		total += wins[i].work
		for _, e := range wins[i].edges {
			cand = append(cand, e.off+1)
		}
	}
	slices.Sort(cand)
	cand = slices.Compact(cand)
	dc.cand = cand

	// One sweep per rank, in rank order so the sums associate as the
	// allreduce's do (which starts from rank 0's term; 0 + x is x): j is
	// the first published body at or above the candidate, and the work
	// below the candidate is the work below j.
	sums := append(dc.sums[:0], make([]float64, len(cand))...)
	unknown := append(dc.unknown[:0], make([]bool, len(cand))...)
	dc.sums, dc.unknown = sums, unknown
	for r := range wins {
		w := &wins[r]
		gap, j := w.gap(), 0
		for k, off := range cand {
			for j < len(w.edges) && w.edges[j].off < off {
				j++
			}
			below := w.work
			if j < len(w.edges) {
				below = w.edges[j].below
			}
			if j == gap {
				unknown[k] = true
			}
			sums[k] += below
		}
	}

	// Targets rise with s, so the scan never goes back. The last
	// candidate lies above every body and is known to every rank: a
	// target it does not reach is reached nowhere.
	splits = make([]uint64, p+1)
	splits[p] = tree.EndOffset
	k := 0
	for s := 0; s < p-1; s++ {
		tgt := total * float64(s+1) / float64(p)
		for k < len(cand) && (unknown[k] || !(sums[k] >= tgt)) {
			k++
		}
		switch {
		case k == len(cand):
			splits[s+1] = tree.EndOffset
		case k > 0 && unknown[k-1]:
			return nil, false
		default:
			splits[s+1] = cand[k]
		}
	}
	dc.wins = wins
	return splits, true
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
func (dc *Decomposer) sampleSplits(c *msg.Comm, ks []keys.Key, pw []float64, p int) []uint64 {
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
		total := 0.0
		cand := append(dc.cand[:0], 1)
		for _, a := range msg.Allgather(c, summary{work: pw[len(ks)], cands: mine}, 8+8*len(mine)) {
			total += a.work
			cand = append(cand, a.cands...)
		}
		slices.Sort(cand)
		cand = slices.Compact(cand)
		dc.cand = cand

		// Work below every candidate, summed over ranks in rank order
		// into rank 0's vector. The sums alias that scratch: rank 0
		// refills it only after the next allgather, which no rank
		// enters before it is done reading.
		sums := dc.sums[:0]
		for _, off := range cand {
			sums = append(sums, pw[searchOffset(ks, off)])
		}
		dc.sums = sums
		sums = msg.Allreduce(c, sums, addVec, 8*len(sums))
		dc.Last.Rounds += 2

		for s := range lo {
			tgt := total * float64(s+1) / float64(p)
			k, _ := slices.BinarySearch(cand, lo[s]+1)
			for ; k < len(cand) && cand[k] < hi[s]; k++ {
				if sums[k] >= tgt {
					hi[s] = cand[k]
					break
				}
				lo[s] = cand[k]
			}
		}
	}
	return splits
}

// mergeRuns restores (Key, ID) order over the freshly unpacked
// bodies. recv holds the exchange's receive buffers in source-rank
// order; their concatenation is out, so each buffer is one sorted run
// and a P-way merge over the run boundaries reproduces the full
// stable sort exactly.
func (dc *Decomposer) mergeRuns(out *core.System, recv [][]Wire) {
	n := out.Len()
	if n < 2 {
		return
	}
	dc.heads = dc.heads[:0]
	runs := 0
	off := 0
	for _, b := range recv {
		dc.heads = append(dc.heads, off)
		off += len(b)
		dc.heads = append(dc.heads, off)
		if len(b) > 0 {
			runs++
		}
	}
	dc.Last.MergeRuns = runs
	if runs <= 1 {
		return // zero or one run: already sorted
	}
	if cap(dc.perm) < n {
		dc.perm = make([]int32, n)
	}
	perm := dc.perm[:n]
	for k := 0; k < n; k++ {
		best, bestIdx := -1, -1
		for r := 0; r < len(dc.heads); r += 2 {
			h := dc.heads[r]
			if h >= dc.heads[r+1] {
				continue
			}
			if best < 0 || lessByKeyID(out, h, bestIdx) {
				best, bestIdx = r, h
			}
		}
		perm[k] = int32(bestIdx)
		dc.heads[best]++
	}
	dc.sorter.Apply(out, perm)
}

// lessByKeyID orders bodies i, j of s by (Key, ID).
func lessByKeyID(s *core.System, i, j int) bool {
	if s.Key[i] != s.Key[j] {
		return s.Key[i] < s.Key[j]
	}
	return s.ID[i] < s.ID[j]
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

func sumPair(a, b [2]float64) [2]float64 {
	return [2]float64{a[0] + b[0], a[1] + b[1]}
}

// addVec accumulates b into a: the reduction's accumulator is the
// root's own probe vector, so nothing is allocated.
func addVec(a, b []float64) []float64 {
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
