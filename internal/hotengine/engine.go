// Package hotengine is the distributed hashed oct-tree pipeline with
// the physics factored out. The paper's central claim is that HOT is
// a library: "the same program structure" -- work-weighted domain
// decomposition, local tree build, branch allgather plus shared top
// tree, deferred-group traversal with context switching, and rounds
// of asynchronous batched messages -- serves gravity, vortex
// dynamics, SPH and panel methods alike. This package is that shared
// structure; a Physics implementation supplies what differs per
// application: an optional per-cell moment payload and its combine
// rule, which body columns a leaf carries, and any per-evaluation
// precomputation. Where a leaf's bodies live -- the rank's own columns,
// the per-phase snapshot pushed leaves are sliced from, or the arena
// imported leaves land in -- is the engine's alone (LeafBodies). The
// gravity engine (internal/parallel), the vortex engine
// (internal/vortex) and the distributed SPH driver (internal/sph) are
// thin instantiations.
//
// One evaluation runs in the paper's four phases:
//
//  1. Domain decomposition: bodies move to processors as contiguous,
//     work-weighted intervals of the Morton curve (internal/domain),
//     keyed in the domain of their global bounding box. A warm step
//     predicts that domain and checks it on the splitter allgather
//     instead of reducing the box, so its decomposition is two
//     collectives: the splitters and the bodies.
//  2. Distributed tree build: each processor builds a local hashed
//     oct-tree over its bodies, publishes its "branch" cells (the
//     coarsest cells wholly inside its interval), and all processors
//     assemble the identical shared top tree above the branches.
//  3. Push of the locally essential cells: every processor publishes
//     one bound on the groups it is about to walk (with its branches,
//     when the exchange was told its first walk: ExchangeFor), and
//     every owner sends each peer, in one all-to-all, the cells of its
//     tree the walk's test (the MAC's or a RangeQuery's), made
//     conservative over that bound, could open.
//  4. Tree traversal: the engine walks the locally essential tree (LET)
//     for each group of the local tree (tree.Tree.Groups: sink cells of
//     up to 64 bodies, at or below this rank's branches) on behalf of
//     the physics' Visitor, which only takes the interactions, the
//     group's own cell whole among them; the engine runs the test. The
//     LET is one table in the layout tree.Builder produces -- the top
//     tree, a copy of each own branch's subtree, and every import,
//     appended as its family lands -- so every walk is tree.Descend,
//     children by index, no name looked up. Behind the push every walk
//     completes on its first attempt, so the phase ends there, with no
//     collective: a group that still parks is a range query whose
//     TestBound broke its contract, and its rank aborts
//     the world (*UncoveredWalkError). The paper's latency hiding is the
//     mechanism with the push off: a group whose walk opens a cell whose
//     children have not landed is suspended on that frontier (the
//     explicit context switch) and rounds of batched request/reply
//     (internal/abm) run until a vote finds every group finished.
//
// The global key name space makes the request path possible: any
// processor can compute which cells it needs and who owns them from
// key arithmetic plus the split table alone.
package hotengine

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"time"

	"repro/internal/abm"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/domain"
	"repro/internal/grav"
	"repro/internal/htab"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/trace"
	"repro/internal/tree"
)

// Physics supplies the application-specific pieces of the pipeline.
// X is the per-cell moment payload beyond the geometric multipole
// every cell already carries (use None when the multipole suffices);
// B is the leaf body payload of a pushed or requested leaf: SoA
// columns (e.g. positions plus masses), which the engine slices,
// snapshots and appends through Columns.
type Physics[X any, B Columns[B]] interface {
	// Prepare runs after decomposition, before the tree build, on the
	// redistributed, key-sorted local system (e.g. vortex dynamics
	// derives the structural masses from the strengths here).
	Prepare(sys *core.System)
	// PostBuild runs after the local tree build (e.g. prefix sums
	// over per-body quantities for O(1) per-cell sums).
	PostBuild(t *tree.Tree)
	// Extra returns the payload of a local cell (branch publication
	// and request serving).
	Extra(c *tree.Cell) X
	// CombineExtra folds a child's payload into an accumulating
	// parent payload (top-tree ancestor assembly; acc starts at the
	// zero X).
	CombineExtra(acc, child X) X
	// Columns returns a view of sys's columns a leaf carries, indexed
	// by body like sys: what local leaves are read from and what each
	// walk phase's snapshot copies.
	Columns(sys *core.System) B
}

// Columns is the constraint on a leaf body payload: equal-length
// columns, one element per body. Slice returns the bodies [lo, hi) as a
// view; Append returns the payload with b's bodies added at the end,
// reusing the receiver's storage as append does.
type Columns[B any] interface {
	Slice(lo, hi int32) B
	Append(b B) B
}

// maxRounds is the request/reply rounds a walk phase may run before
// its rank declares the protocol stuck and aborts the world.
const maxRounds = 64

// None is the empty per-cell payload, for physics whose cell moments
// are fully carried by the geometric multipole.
type None struct{}

// Config controls the shared pipeline.
type Config struct {
	// MAC sets the opening criterion used for the local tree build
	// and the top-tree ancestor RCrit values.
	MAC    grav.MACParams
	Bucket int
	// PhasePrefix prefixes the msg traffic phase labels (e.g. "v"
	// keeps the vortex engine's historical "vtreebuild"/"vwalk"
	// accounting separate from gravity's).
	PhasePrefix string
}

// walkPhase is the persistent per-phase-label state: the abm engine
// (recycled queue/receive buffers) and the precomputed traffic label
// (prefix concatenation allocates, so it is done once).
type walkPhase[X any, B Columns[B]] struct {
	eng   *abm.Engine[keys.Key, Wire[X, B]]
	label string
}

// Engine holds one rank's state across timesteps.
type Engine[X any, B Columns[B]] struct {
	C    *msg.Comm
	Cfg  Config
	Phys Physics[X, B]
	// Sys is this rank's current local bodies (replaced by each
	// Exchange with the redistributed, key-sorted system).
	Sys *core.System

	// Domain is the key domain of the last exchange: the bodies' own
	// (keys.DomainOf their global box).
	Domain keys.Domain
	Splits []uint64
	// Local is this rank's tree: what it serves requests and pushes from.
	Local *tree.Tree

	// let is the locally essential tree every walk descends: root at
	// entry 0, each cell's children side by side from Kids. The first
	// letTop entries are the top tree and the copies of this rank's own
	// subtrees; imports follow. letX holds each entry's payload, remote
	// the entries of other ranks' branches (what ResetImports restores).
	let    *tree.Tree
	letX   []X
	letTop int
	remote []int32

	// Counters accumulates interaction counts across evaluations.
	Counters diag.Counters
	// Timer accumulates per-phase wall time across evaluations
	// (decompose, treebuild, branches, then one phase per walk).
	Timer *diag.Timer
	// Sub accumulates the tree-construction sub-breakdown across
	// evaluations: "treebuild/sort" (key sort and order repair, both
	// sides of the exchange), "treebuild/build" (the recursion: octant
	// splits and moments) and "treebuild/insert" (hash insertion). Spans
	// nest inside the Timer's decompose/treebuild phases.
	Sub *diag.Timer
	// Rounds is the request/reply rounds since the last Exchange (0
	// with the push on); RemoteCells the cells imported since then, and
	// ImportedCells those imported over the engine's life, the run total
	// Record reports beside the Counters.
	Rounds        int
	RemoteCells   int
	ImportedCells int
	// Park accumulates the request path's tallies across evaluations.
	Park ParkCounters
	// Relocated counts the exchanges whose predicted key domain missed
	// (domain.Stats.Relocated).
	Relocated int

	// Trace, when non-nil, receives this rank's timeline: phase spans
	// (via the Timer's sink -- set both through Observe), ABM
	// round spans, and a "stall" span per deferred group covering
	// first deferral to walk completion. Nil means zero overhead.
	Trace *trace.Tracer

	// dec and builder carry the construction pipeline's cross-step
	// state: sorter scratch, search windows, cell buffers.
	dec     domain.Decomposer
	builder tree.Builder

	// The leaf store: local views Sys's columns (taken as the exchange
	// replaces Sys, so no older columns stay pinned), snap is the copy of
	// them pushes and replies slice (snapshot), imp the arena of nimp
	// imported bodies, an imported leaf's First being -(its start + 1).
	local, snap, imp B
	nimp             int32

	cellBytes, bodyBytes int
	// maxRounds is the constant, lowered only in tests.
	maxRounds int
	// branches are this rank's own branch cells, the roots of the push
	// descent; pubs is what the ranks published with theirs when that
	// included walk bounds (ExchangeFor), for the first push after it;
	// pushOff leaves the walk to request/reply alone, and fallBack ends
	// a pushed phase on the same vote/round loop (tests only).
	branches []keys.Key
	pubs     []published[X, B]
	pushOff  bool
	fallBack bool

	// phases holds one persistent abm engine per walk-phase label, so
	// steady-state walks reuse the recycled queue/receive buffers
	// instead of reconstructing the engine every call.
	phases map[string]*walkPhase[X, B]
	// Per-phase walk state shared between the round loop and the
	// incremental reply imports: the current visitor (query: it as a
	// RangeQuery, nil for a MAC walk), eval closure and abm engine
	// (curEng, which requests are posted to); the groups the phase walks
	// (freshBuf) and the parked groups whose last missing cell has
	// arrived (readyBuf, resumed by the next sweep), both as indices into
	// Local.Groups; the per-group walk state (groups, same indexing) and
	// how many are parked; the miss->waiting-groups lists importCell
	// walks so a group is promoted to ready the moment its final cell
	// lands (keyWaiters heads into the waiters node arena, free nodes
	// chained from freeWaiter; a miss is in keyWaiters exactly while its
	// requests are in flight, so it doubles as the request-dedup set).
	// desc is the current group's descent (its sphere, the test, the
	// batch of accepted cells and their entries, what it missed) and
	// extras the payloads of that batch, index for index, gathered only
	// when X has any (hasExtra). hashDescent, nil outside tests, stands
	// in for tree.Descend over the LET (the paper's hash-only descent,
	// export_test.go).
	desc        tree.Descent
	extras      []X
	hasExtra    bool
	hashDescent func(from, n int32, emit bool) uint64
	curWalk     Visitor[X]
	query       RangeQuery
	curEval     EvalFn
	curEng      *abm.Engine[keys.Key, Wire[X, B]]
	freshBuf    []int32
	readyBuf    []int32
	groups      []suspended
	nparked     int
	keyWaiters  map[keys.Key]waitList
	waiters     []waiter
	freeWaiter  int32
	onReply     func(src int, reps []Wire[X, B])
}

// New creates an engine wrapping this rank's share of the bodies. The
// physics-facing system configuration (EnableDynamics etc.) is the
// caller's responsibility.
func New[X any, B Columns[B]](c *msg.Comm, sys *core.System, phys Physics[X, B], cfg Config) *Engine[X, B] {
	if cfg.Bucket <= 0 {
		cfg.Bucket = tree.DefaultBucketSize
	}
	e := &Engine[X, B]{
		C: c, Cfg: cfg, Phys: phys, Sys: sys,
		Timer:     diag.NewTimer(),
		Sub:       diag.NewTimer(),
		cellBytes: CellWireBytes[X, B](),
		bodyBytes: BodyWireBytes[B](),
		phases:    make(map[string]*walkPhase[X, B]),
		maxRounds: maxRounds,
		hasExtra:  reflect.TypeFor[X]().Size() > 0,
	}
	e.dec.Sub = e.Sub
	e.builder.Sub = e.Sub
	e.desc.Index = e.hasExtra
	e.onReply = e.onReplyBatch
	return e
}

// DecomposeStats describes the engine's most recent decomposition
// (displaced bodies, splitter-search collectives, body batches,
// relocation).
func (e *Engine[X, B]) DecomposeStats() domain.Stats { return e.dec.Last }

// Observe attaches the rank's tracer (nil: none): the Timer's phases
// become timeline spans and the walk emits ABM round and stall spans.
// Call before the first Exchange.
func (e *Engine[X, B]) Observe(t *trace.Tracer) {
	e.Trace = t
	if t != nil {
		e.Timer.Sink = func(phase string, start time.Time, d time.Duration) {
			t.SpanAt(phase, start, d)
		}
		e.Sub.Sink = e.Timer.Sink
	}
}

// Record describes this rank's accumulated pipeline state as the one
// value every reader takes (RunReport, live sampler, driver epilogues).
// Everything in it is owned by the rank goroutine (counters, timers,
// traffic record) and copied, so the call is safe mid-run from that
// goroutine and the value is safe anywhere. The physics engines add
// their invariants (energy, stepping).
func (e *Engine[X, B]) Record() metrics.RankInput {
	return metrics.RankInput{
		Counters:    e.Counters,
		Phases:      append(e.Timer.Banked(), e.Sub.Banked()...),
		RemoteCells: e.ImportedCells,
		SplitRounds: e.dec.Last.Rounds,
		Relocated:   e.Relocated,
		BodyBatches: e.dec.Last.Batches,
		Sent:        e.C.TrafficTotal(),
		Bodies:      e.Sys.Len(),
	}
}

// Exchange runs phases 1 and 2: decomposition, local tree build, and
// the branch exchange that assembles the shared top tree and the
// locally essential tree every walk descends. On return
// Sys holds the redistributed local bodies and the engine is ready
// for WalkGroups.
func (e *Engine[X, B]) Exchange() {
	e.ExchangeFor(nil, nil)
}

// ExchangeFor is Exchange for a caller that knows the walk it will run
// first: visitor v over the groups active admits (nil means all). That
// walk's bound follows from the local tree alone, so it travels on the
// branch allgather and the push needs no allgather of its own. The next
// WalkGroups/WalkGroupsIf must be that walk: any other is pushed for
// the declared walk's groups, and if one of its groups parks the rank
// aborts the world (*UncoveredWalkError).
//
// Every exchange, a block-timestep partial evaluation's too, keys the
// bodies in their own domain, which the decomposer predicts and checks
// on the splitter search instead of allreducing the box
// (domain.Decomposer.DecomposeGlobal): a warm evaluation is four
// collectives, the box riding on the splitter allgather, and its domain
// and splits are a function of the bodies, their Work and the rank
// count, never of the exchanges before it.
func (e *Engine[X, B]) ExchangeFor(v Visitor[X], active func(g *tree.Cell) bool) {
	e.Timer.Start("decompose")
	res := e.dec.DecomposeGlobal(e.C, e.Sys)
	e.Sys, e.Splits, e.Domain = res.Sys, res.Splits, res.Domain
	if e.dec.Last.Relocated {
		e.Relocated++
	}
	e.Phys.Prepare(e.Sys)
	e.local = e.Phys.Columns(e.Sys)

	// The local tree force-splits cells straddling this rank's
	// interval so every branch cell materializes as a node.
	e.Timer.Start("treebuild")
	e.C.Phase(e.Cfg.PhasePrefix + "treebuild")
	e.Local = e.builder.BuildRange(e.Sys, e.Domain, e.Cfg.MAC, e.Cfg.Bucket,
		e.Splits[e.C.Rank()], e.Splits[e.C.Rank()+1])
	e.Counters.CellsBuilt += uint64(e.Local.NCells())
	e.Phys.PostBuild(e.Local)

	e.Timer.Start("branches")
	e.exchangeBranches(v, active)
	e.Timer.Stop()
	e.Rounds = 0
}

// published is one rank's contribution to the branch allgather: its
// branch cells and, for an exchange that knows it, the first walk's bound.
type published[X, B any] struct {
	cells []Wire[X, B]
	bound tree.Bound
}

// exchangeBranches publishes this rank's branch cells, assembles the
// shared top tree (branches plus all their ancestors, moments combined
// across ranks) and lays out the LET over it. With a visitor it also
// publishes the bound of the groups v is about to walk and keeps every
// rank's for the push.
func (e *Engine[X, B]) exchangeBranches(v Visitor[X], active func(g *tree.Cell) bool) {
	e.C.Phase(e.Cfg.PhasePrefix + "branches")
	var mine []Wire[X, B]
	e.branches = e.branches[:0]
	for _, bk := range tree.RangeDecompose(e.Splits[e.C.Rank()], e.Splits[e.C.Rank()+1]) {
		c := e.Local.Cell(bk)
		if c == nil {
			continue // no bodies in this part of the interval
		}
		e.branches = append(e.branches, bk)
		mine = append(mine, Wire[X, B]{
			Key: bk, Mp: c.Mp, Extra: e.Phys.Extra(c), RCrit: c.RCrit,
			N: c.N, ChildMask: c.ChildMask, Leaf: c.Leaf,
		})
	}
	pub, bytes := published[X, B]{cells: mine}, e.cellBytes*len(mine)
	if v != nil {
		q, _ := v.(RangeQuery)
		pub.bound, bytes = e.walkBound(q, active), bytes+boundBytes
	}
	all := msg.Allgather(e.C, pub, bytes)
	e.pubs = nil
	if v != nil {
		e.pubs = all
	}

	e.imp, e.nimp = e.imp.Slice(0, 0), 0
	e.RemoteCells = 0

	// Lay the LET out from the root: the top tree over every rank's
	// branches, which arrive in Morton order, and below the branches what
	// is here already.
	var bs []branch[X, B]
	for r, a := range all {
		for _, w := range a.cells {
			bs = append(bs, branch[X, B]{w, r})
		}
	}
	// One table for the engine's life: a cell holds no pointer, so the
	// capacity the imports grew it to is kept, not reallocated each step.
	if e.let == nil {
		e.let = &tree.Tree{Cells: htab.New[tree.Cell](4*len(bs) + e.Local.NCells())}
	}
	e.let.Cells.Clear()
	e.letX, e.remote = e.letX[:0], e.remote[:0]
	if len(bs) > 0 {
		var x X
		e.place(tree.Cell{Key: keys.Root}, x)
		e.layTop(0, keys.Root, bs)
	}
	e.letTop = e.let.Cells.Len()
}

// branch is a published branch cell and the rank it is a branch of.
type branch[X, B any] struct {
	w    Wire[X, B]
	rank int
}

// place appends a cell and its payload to the LET.
func (e *Engine[X, B]) place(c tree.Cell, x X) {
	e.let.Cells.Insert(c.Key, c)
	e.letX = append(e.letX, x)
}

// layTop fills entry i with top-tree cell k over bs, the branches at or
// below it, and lays out what is known below it, the way tree.Builder
// builds: its children's block first, then each child's, its moments
// combined from theirs in octant order. An own branch is the local
// tree's cell, its subtree copied in; another rank's branch has nothing
// below it until its family (a leaf: its bodies) lands.
func (e *Engine[X, B]) layTop(i int32, k keys.Key, bs []branch[X, B]) (tree.Cell, X) {
	if b := bs[0]; b.w.Key == k {
		w, c := b.w, b.w.cell()
		own := b.rank == e.C.Rank()
		if own {
			c = *e.Local.Cell(k)
		} else {
			blank(&c)
		}
		*e.let.Cells.At(int(i)), e.letX[i] = c, w.Extra
		if own {
			e.copyLocal(i, &c)
		} else {
			e.remote = append(e.remote, i)
		}
		return c, w.Extra
	}
	lvl, kids := k.Level()+1, int32(e.let.Cells.Len())
	var mask uint8
	for _, b := range bs {
		if ck := b.w.Key.AncestorAt(lvl); mask&(1<<uint(ck.Octant())) == 0 {
			mask |= 1 << uint(ck.Octant())
			var x X
			e.place(tree.Cell{Key: ck}, x)
		}
	}
	var children []grav.Multipole
	var nb int32
	var extra X
	for j := kids; len(bs) > 0; j++ {
		ck, n := bs[0].w.Key.AncestorAt(lvl), 1
		for n < len(bs) && bs[n].w.Key.AncestorAt(lvl) == ck {
			n++
		}
		c, x := e.layTop(j, ck, bs[:n])
		children = append(children, c.Mp)
		nb += c.N
		extra = e.Phys.CombineExtra(extra, x)
		bs = bs[n:]
	}
	mp := grav.Combine(children)
	center, size := e.Domain.CellCenter(k)
	c := tree.Cell{
		Key: k, Mp: mp,
		RCrit:     grav.RCrit(&mp, size, mp.COM.Sub(center).Norm(), e.Cfg.MAC),
		N:         nb,
		Kids:      kids,
		ChildMask: mask,
	}
	*e.let.Cells.At(int(i)), e.letX[i] = c, extra
	return c, extra
}

// blank marks another rank's branch record as having nothing below it
// here yet: a leaf's bodies unfetched (and, once they land pushed, not
// yet entered), a cell's children not laid out.
func blank(c *tree.Cell) {
	if c.Leaf {
		c.First, c.Kids = tree.Unfetched, -1
	} else {
		c.Kids = 0
	}
}

// copyLocal copies the local subtree below src, one of this rank's
// cells, under its copy at entry i.
func (e *Engine[X, B]) copyLocal(i int32, src *tree.Cell) {
	if src.Leaf {
		return
	}
	n, kids := int32(bits.OnesCount8(src.ChildMask)), int32(e.let.Cells.Len())
	for j := int32(0); j < n; j++ {
		lc := e.Local.Cells.At(int(src.Kids + j))
		c := *lc
		c.Kids = 0
		e.place(c, e.Phys.Extra(lc))
	}
	e.let.Cells.At(int(i)).Kids = kids
	for j := int32(0); j < n; j++ {
		e.copyLocal(kids+j, e.Local.Cells.At(int(src.Kids+j)))
	}
}

// OwnerOf returns the rank owning a (strictly below-branch) cell,
// from key arithmetic and the split table alone.
func (e *Engine[X, B]) OwnerOf(k keys.Key) int {
	off := tree.KeyOffset(k.MinBody())
	// Find r with Splits[r] <= off < Splits[r+1].
	r := tree.UpperBound(e.Splits[1:], off)
	if r >= e.C.Size() {
		r = e.C.Size() - 1
	}
	return r
}

// serve answers a batch of cell requests from src out of the local
// tree. Every requested key must be at or below one of this rank's
// branches, so a miss is a protocol violation.
func (e *Engine[X, B]) serve(src int, reqs []keys.Key) []Wire[X, B] {
	out := make([]Wire[X, B], len(reqs))
	for i, k := range reqs {
		c := e.Local.Cell(k)
		if c == nil {
			panic(fmt.Sprintf("hotengine: rank %d asked rank %d for unknown cell %v", src, e.C.Rank(), k))
		}
		out[i] = e.wireOf(k, c)
	}
	return out
}

// wireOf packs one local cell for the wire.
func (e *Engine[X, B]) wireOf(k keys.Key, c *tree.Cell) Wire[X, B] {
	w := Wire[X, B]{
		Key: k, Mp: c.Mp, Extra: e.Phys.Extra(c), RCrit: c.RCrit,
		N: c.N, ChildMask: c.ChildMask, Leaf: c.Leaf,
	}
	if c.Leaf {
		w.Bodies = e.snap.Slice(c.First, c.First+c.N)
	}
	return w
}

// snapshot copies the rank's leaf columns over the last copy, which
// pushed and reply leaves are sliced from: a peer imports them whenever
// its batch lands, and no collective orders that read before the
// owner's next write to its columns (DESIGN.md "A pushed walk needs no
// vote"). Called once per walk phase before anything is packed, at a
// point every peer reaches only after importing all the last phase sent.
func (e *Engine[X, B]) snapshot() {
	e.snap = e.snap.Slice(0, 0).Append(e.local)
}

// LeafBodies returns where the bodies of leaf c of the LET are: the
// rank's columns or the import arena, and the range [lo, hi) of them.
// The columns go by pointer, so no payload is copied per leaf.
func (e *Engine[X, B]) LeafBodies(c *tree.Cell) (cols *B, lo, hi int32) {
	if c.First >= 0 {
		return &e.local, c.First, c.First + c.N
	}
	lo = -(c.First + 1)
	return &e.imp, lo, lo + c.N
}

// importCell lays out a remote cell, pushed by its owner or fetched by
// request, copying leaf bodies into the import arena. A cell
// already held is dropped: a phase over an earlier phase's imports is
// pushed much of them again (SPH forces, then gravity). Families land
// whole, so the first of one to arrive reserves the block for all of
// it; another rank's leaf branch is filled in place.
func (e *Engine[X, B]) importCell(w Wire[X, B], pushed bool) {
	cells := e.let.Cells
	i := cells.Index(w.Key)
	switch {
	case i < 0:
		i = e.reserve(w.Key, pushed)
	case cells.At(i).First != tree.Unfetched:
		return
	}
	c := w.cell()
	if pushed {
		c.Kids = cells.At(i).Kids // a leaf branch's: not yet entered
		e.Counters.Pushed++
	}
	if w.Leaf {
		c.First = -(e.nimp + 1)
		e.imp, e.nimp = e.imp.Append(w.Bodies), e.nimp+w.N
	}
	*cells.At(i) = c
	e.letX[i] = w.Extra
	e.RemoteCells++
	e.ImportedCells++
	// Wake the groups waiting on this cell: a group whose last
	// outstanding miss just landed is promoted to the ready queue, and
	// the next sweep resumes it. In-flight misses go by family,
	// under the parent's key; only a remote leaf branch, fetched on its
	// own, goes under its own. The first cell of a family to land wakes
	// the waiters: its siblings follow in this same batch, before any
	// walk can run.
	wk := w.Key.Parent()
	l, ok := e.keyWaiters[wk]
	if !ok {
		wk = w.Key
		l, ok = e.keyWaiters[wk]
	}
	if ok {
		delete(e.keyWaiters, wk)
		for n := l.head; n >= 0; n = e.waiters[n].next {
			gi := e.waiters[n].group
			if e.groups[gi].wait--; e.groups[gi].wait == 0 {
				e.readyBuf = append(e.readyBuf, gi)
			}
		}
		e.waiters[l.tail].next, e.freeWaiter = e.freeWaiter, l.head
	}
}

// onReplyBatch is the abm OnReply hook (bound once): it imports one
// source's reply batch as it arrives inside Round, on the rank
// goroutine, while later sources' batches are still in flight.
func (e *Engine[X, B]) onReplyBatch(_ int, reps []Wire[X, B]) {
	for i := range reps {
		e.importCell(reps[i], false)
	}
}

// reserve lays out the block of k's family, the first of it to land:
// a slot per sibling, unfetched until it lands too, and the parent's
// Kids -- negated for a pushed family, so that the first descent into
// it counts it used (tree.Descent.Entered). It returns k's slot.
func (e *Engine[X, B]) reserve(k keys.Key, pushed bool) int {
	cells, pk := e.let.Cells, k.Parent()
	p := cells.Index(pk)
	mask := cells.At(p).ChildMask
	kids := int32(cells.Len())
	for oct := 0; oct < 8; oct++ {
		if mask&(1<<uint(oct)) != 0 {
			var x X
			e.place(tree.Cell{Key: pk.Child(oct), First: tree.Unfetched}, x)
		}
	}
	at := kids
	if pushed {
		at = -kids
	}
	cells.At(p).Kids = at
	return int(kids) + bits.OnesCount8(mask&(1<<uint(k.Octant())-1))
}

// ResetImports discards every imported cell and the import arena,
// returning the LET to its layout before any import, so a later
// WalkGroups imports remote data afresh. Multi-pass physics (SPH) uses
// this between the density and force passes: the second pass must see
// the updated remote densities, not the stale imports.
func (e *Engine[X, B]) ResetImports() {
	e.let.Cells.Truncate(e.letTop)
	e.letX = e.letX[:e.letTop]
	for _, i := range e.remote {
		blank(e.let.Cells.At(int(i)))
	}
	e.imp, e.nimp = e.imp.Slice(0, 0), 0
}

// WalkGroups runs phases 3 and 4 for one traversal pass: after the
// push it walks the tree for every local group on behalf of the
// visitor v, running eval for each group right after the emitting walk
// that completed it. The push covers every walk, so the phase ends
// when the walks do; a group that parks all the same aborts the world
// (*UncoveredWalkError). With the push off, parked groups fetch the
// cells they miss from their owners in batched rounds until a vote
// finds every group complete. Counters.Traversals counts the cell
// visits of completed walks only -- the paper's performance accounting
// rides on it being exact -- while visits of first attempts that
// missed and of discovery descents go to Park.Rewalked.
//
// eval may be nil when the pass has nothing to evaluate. label names
// the phase for the Timer and (with the configured prefix) the msg
// traffic accounting.
func (e *Engine[X, B]) WalkGroups(label string, v Visitor[X], eval EvalFn) {
	e.WalkGroupsIf(label, nil, v, eval)
}

// WalkGroupsIf is WalkGroups restricted to the groups for which
// active returns true (nil means all) -- the partial traversal of
// block timesteps. Skipped groups run no walk at all, but every rank
// still enters the same collectives (it publishes an empty bound and
// pushes to the others; with the push off it votes and serves their
// requests), so the call is collective even when a rank's active set
// is empty.
func (e *Engine[X, B]) WalkGroupsIf(label string, active func(g *tree.Cell) bool, v Visitor[X], eval EvalFn) {
	e.Timer.Start(label)
	ph := e.phases[label]
	if ph == nil {
		ph = &walkPhase[X, B]{
			eng:   abm.New[keys.Key, Wire[X, B]](e.C, KeyWireBytes(), e.wireBytes, e.serve),
			label: e.Cfg.PhasePrefix + label,
		}
		ph.eng.OnReply = e.onReply
		e.phases[label] = ph
	}
	eng := ph.eng
	eng.Trace = e.Trace
	e.C.Phase(ph.label)

	e.freshBuf = e.freshBuf[:0]
	for gi, gk := range e.Local.Groups {
		if active == nil || active(e.Local.Cell(gk)) {
			e.freshBuf = append(e.freshBuf, int32(gi))
		}
	}
	e.readyBuf = e.readyBuf[:0]
	// One walk-state slot per group, keeping the frontier buffers of
	// earlier phases. All of this is already clear after a phase that
	// ran to completion; an aborted one may have left groups parked.
	e.groups = slices.Grow(e.groups[:0], len(e.Local.Groups))[:len(e.Local.Groups)]
	for gi := range e.groups {
		e.groups[gi].wait = 0
	}
	e.nparked = 0
	if e.keyWaiters == nil {
		e.keyWaiters = make(map[keys.Key]waitList)
	}
	clear(e.keyWaiters)
	e.waiters, e.freeWaiter = e.waiters[:0], -1

	e.setVisitor(v)
	e.push(active)
	e.curEval, e.curEng = eval, eng

	// First walks: every group once, against what the push delivered.
	for _, gi := range e.freshBuf {
		e.attempt(gi)
	}
	// Behind the push the phase ends here, with no vote: every walk
	// completed against what the owners sent. A group parked anyway
	// means a range query's TestBound did not cover its walk; the rank
	// must not leave its peers waiting on requests nobody will serve.
	rounds := e.pushOff || e.fallBack
	if !rounds && e.nparked > 0 {
		e.C.Abort(&UncoveredWalkError{Rank: e.C.Rank(), Phase: ph.label, Parked: e.nparked})
	}
	// With the push off the phase ends on the vote that finds nothing
	// parked or posted anywhere. Until then a round runs (onReplyBatch
	// imports as replies land) and the ready groups resume.
	for round := 0; rounds && eng.Vote(e.nparked > 0); round++ {
		if round >= e.maxRounds {
			// One rank declaring the protocol stuck must not strand
			// the others inside the next collective: abort the whole
			// world so every rank unwinds with its round state (noted
			// by abm.Round) attached to the WorldError.
			e.C.Abort(fmt.Errorf(
				"hotengine: request rounds exceeded the limit of %d in phase %q: %d groups parked, %d cell families in flight, %d rounds since exchange",
				e.maxRounds, label, e.nparked, len(e.keyWaiters), e.Rounds))
		}
		eng.Round()
		e.Rounds++
		for _, gi := range e.readyBuf {
			e.resume(gi)
		}
		e.readyBuf = e.readyBuf[:0]
	}
	e.curWalk, e.query, e.curEval, e.curEng = nil, nil, nil, nil
	e.Counters.PushUsed += e.desc.Entered
	e.desc.Entered = 0
	e.desc.Drop() // the last batch points into the LET, which the next Exchange lays out again
	e.Timer.Stop()
}

// UncoveredWalkError is the abort cause of a pushed walk phase that left
// groups parked: a range query's TestBound did not open every cell some
// walk of the phase opened, or the phase was not the walk its
// ExchangeFor declared. Rank is the rank whose groups parked, Phase the
// phase's traffic label, Parked how many groups.
type UncoveredWalkError struct {
	Rank   int
	Phase  string
	Parked int
}

func (e *UncoveredWalkError) Error() string {
	return fmt.Sprintf("hotengine: rank %d: %d groups parked in phase %q behind the push: the pushed cells did not cover their walks",
		e.Rank, e.Parked, e.Phase)
}
