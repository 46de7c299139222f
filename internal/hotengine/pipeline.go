package hotengine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diag"
	"repro/internal/keys"
	"repro/internal/tree"
)

// The walk/eval pipeline. The paper hides communication latency by
// keeping the floating-point units busy while batched messages are in
// flight; here that means the rank goroutine only *walks* (builds
// interaction lists, defers on missing cells, runs the collective
// rounds) while completed groups are evaluated by a small pool of
// worker goroutines. The decoupling that makes this hide latency on
// any core count is slots vs workers: a slot is one in-flight group's
// evaluation state (the adapter keeps a walker/list per slot, indexed
// by the slot argument of Visitor.Begin/EvalFn), and there are many more
// slots than workers. The queued backlog of completed-but-unevaluated
// groups is the paper's pool of context-switched work: when the rank
// goroutine parks in an Alltoallv, the workers drain the backlog, so
// kernel time fills the communication window instead of preceding it.
//
// Determinism: the walk stage stays on the rank goroutine (tree
// tables, request posting, and e.Counters stay single-owner), lists
// are self-contained copies, group body ranges are disjoint, and each
// worker accumulates into its own diag.Counters folded in at phase
// drain -- uint64 sums are order-independent, so forces *and* counts
// are bitwise identical to the inline schedule at any worker count.

// EvalFn evaluates one completed group's interactions from the given
// slot's state. With the pipeline on it may run on a worker goroutine
// concurrently with later walks; ctr is then that worker's private
// counter set. It must touch only the slot's state, the group's own
// (disjoint) body rows, and ctr.
type EvalFn func(slot int, gk keys.Key, g *tree.Cell, ctr *diag.Counters)

// evalJob is one completed group handed to the eval workers.
type evalJob struct {
	slot int
	gk   keys.Key
	g    *tree.Cell
	eval EvalFn
}

// evalPool runs EvalFn jobs on nworkers goroutines across nslots
// in-flight slot states. Slot 0 is reserved for the rank goroutine's
// inline spill path and never enters the pool; pooled slots are
// 1..nslots. The free channel is a token pool: a slot index is either
// in free, held briefly by the rank between acquire and dispatch, or
// attached to a queued/running job. Channel handoffs give the
// happens-before edges both ways (rank's list writes -> worker eval;
// worker counter writes -> rank fold at drain).
//
// The rank goroutine is itself a consumer: tryRunOne steals one queued
// job, which the engine wires into msg.Comm.Progress so a Recv that
// would block inside a collective drains the backlog instead of
// sleeping (MPI_Test-and-compute). On a single-CPU host this is where
// nearly all of the overlap comes from -- the rank never parks while
// it has completed groups in hand -- while on multi-core hosts the
// workers drain concurrently with the walk as well.
type evalPool struct {
	nworkers int
	nslots   int
	jobs     chan evalJob
	free     chan int
	// ctrs is one private counter set per worker, plus one (the last
	// entry) for jobs the rank goroutine runs via tryRunOne; all are
	// folded into the engine's counters when a phase drains.
	ctrs []diag.Counters
	// busyNs accumulates worker time spent inside EvalFn (whole-job
	// granularity: a job spanning a comm-window boundary is attributed
	// to the window that sees it complete).
	busyNs atomic.Int64
	// held buffers the tokens quiesce collects.
	held []int
	wg   sync.WaitGroup
}

func newEvalPool(workers, slots int) *evalPool {
	// Never oversubscribe: a worker goroutine competing with the rank
	// goroutines for the same core steals CPU during the walk sweeps
	// and finishes the evals exactly when overlap cannot help, leaving
	// the backlog empty by the time the collectives open. Cap the
	// spawned workers at GOMAXPROCS-1 -- on a single-core host that is
	// zero, and the rank goroutine's Progress hook is the entire drain
	// path (which is where the overlap comes from there anyway).
	if max := runtime.GOMAXPROCS(0) - 1; workers > max {
		workers = max
	}
	p := &evalPool{
		nworkers: workers,
		nslots:   slots,
		// jobs is deep enough that a dispatch never blocks: at most
		// nslots jobs can be in flight (token conservation).
		jobs: make(chan evalJob, slots),
		free: make(chan int, slots),
		ctrs: make([]diag.Counters, workers+1),
		held: make([]int, 0, slots),
	}
	for s := 1; s <= slots; s++ {
		p.free <- s
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.run(i)
	}
	return p
}

func (p *evalPool) run(id int) {
	defer p.wg.Done()
	ctr := &p.ctrs[id]
	for job := range p.jobs {
		t0 := time.Now()
		job.eval(job.slot, job.gk, job.g, ctr)
		p.busyNs.Add(time.Since(t0).Nanoseconds())
		p.free <- job.slot
	}
}

// tryRunOne steals one queued job and runs it on the calling (rank)
// goroutine, into the rank's private pool counter cell. Returns false
// when no job is queued. Same-goroutine with the walk, so no
// synchronization beyond the channels is needed; the busy time it
// accumulates lands inside whatever comm window invoked it.
func (p *evalPool) tryRunOne() bool {
	select {
	case job := <-p.jobs:
		t0 := time.Now()
		job.eval(job.slot, job.gk, job.g, &p.ctrs[p.nworkers])
		p.busyNs.Add(time.Since(t0).Nanoseconds())
		p.free <- job.slot
		return true
	default:
		return false
	}
}

// quiesce blocks until every dispatched job has completed, collecting
// all nslots tokens (workers only return tokens after the eval and its
// counter writes, so holding every token proves the pool is idle and
// fences the workers' writes). release hands the tokens back for the
// next phase.
func (p *evalPool) quiesce() {
	p.held = p.held[:0]
	for len(p.held) < p.nslots {
		p.held = append(p.held, <-p.free)
	}
}

func (p *evalPool) release() {
	for _, s := range p.held {
		p.free <- s
	}
	p.held = p.held[:0]
}

// Close quiesces and stops the workers. The pool must not be used
// afterwards. The caller drains any leftover backlog first (phases
// always do), but with zero spawned workers nobody else would, so
// drain defensively before collecting the tokens.
func (p *evalPool) Close() {
	for p.tryRunOne() {
	}
	p.quiesce()
	close(p.jobs)
	p.wg.Wait()
}
