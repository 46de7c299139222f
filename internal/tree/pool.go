package tree

import (
	"runtime"
	"sync/atomic"

	"repro/internal/diag"
	"repro/internal/trace"
)

// groupBatch is how many groups a pool worker claims per grab: large
// enough that the atomic counter is cold, small enough that the
// tail-end imbalance stays negligible (groups are sink cells of at most
// sinkCap bodies, so a batch is a few hundred bodies of work).
const groupBatch = 8

// ForcePool is a persistent worker pool for concurrent force
// evaluations. The workers, their Walkers (stacks, interaction lists,
// SoA target blocks) and all coordination channels live as long as
// the pool, so a steady-state Gravity call performs zero heap
// allocations -- the property BenchmarkAblation_BatchedConcurrentAllocs
// guards. Groups write disjoint body ranges, so workers share the
// tree read-only and never contend.
//
// A pool may be reused across many trees and timesteps (the paper's
// persistent compute processes); it is not safe for concurrent
// Gravity calls on the same pool. Close releases the workers.
type ForcePool struct {
	tr      *Tree
	eps2    float64
	next    atomic.Int64
	ctrs    []diag.Counters
	walkers []*Walker
	start   []chan struct{}
	done    chan struct{}
	trace   *trace.Tracer
}

// SetTrace attaches a tracer: each Gravity call then emits one busy
// span per worker on the tracer's sub-tracks, exposing tail workers
// and queue imbalance. Set it between evaluations only (same
// single-owner contract as Gravity itself); nil disables.
func (p *ForcePool) SetTrace(t *trace.Tracer) { p.trace = t }

// NewForcePool starts a pool of workers (<= 0 means GOMAXPROCS).
func NewForcePool(workers int) *ForcePool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &ForcePool{
		ctrs:    make([]diag.Counters, workers),
		walkers: make([]*Walker, workers),
		start:   make([]chan struct{}, workers),
		done:    make(chan struct{}, workers),
	}
	for i := range p.start {
		p.walkers[i] = new(Walker)
		p.start[i] = make(chan struct{}, 1)
		go p.worker(i)
	}
	return p
}

// worker loops forever: wake, drain the group queue, signal done.
// The Walker persists across evaluations, which is where the
// zero-allocation steady state comes from.
func (p *ForcePool) worker(i int) {
	w := p.walkers[i]
	ctr := &p.ctrs[i]
	for range p.start[i] {
		t := p.tr
		t0 := p.trace.Now()
		n := int64(len(t.Groups))
		for {
			hi := p.next.Add(groupBatch)
			lo := hi - groupBatch
			if lo >= n {
				break
			}
			if hi > n {
				hi = n
			}
			t.gravityGroups(w, ctr, int(lo), int(hi), p.eps2, 0)
		}
		p.trace.WorkerSpan(i, "gravity", t0)
		p.done <- struct{}{}
	}
}

// Gravity runs one full force evaluation of t over the pool's
// workers. Results are identical to the serial Tree.Gravity (same
// per-group arithmetic, no cross-group reductions).
func (p *ForcePool) Gravity(t *Tree, eps2 float64) diag.Counters {
	p.tr, p.eps2 = t, eps2
	p.next.Store(0)
	for i := range p.ctrs {
		p.ctrs[i] = diag.Counters{}
	}
	for _, c := range p.start {
		c <- struct{}{}
	}
	for range p.start {
		<-p.done
	}
	var total diag.Counters
	for i := range p.ctrs {
		total.Add(p.ctrs[i])
	}
	p.tr = nil
	p.equalize()
	return total
}

// equalize levels every worker's buffer capacities (interaction list,
// SoA target block, descent stack and batch) up to the fleet-wide
// maximum. The atomic group queue hands batches out nondeterministically, so
// without this a worker could meet a group whose interaction list is
// larger than any it saw before and have to grow mid-evaluation; after
// one full evaluation plus equalize, every walker can hold the largest
// list any group produces and the steady state allocates nothing
// (every Grow is exact, so a levelled fleet stays levelled). Runs
// between evaluations, workers idle.
func (p *ForcePool) equalize() {
	var nb, nc, nt, nstack, nbatch int
	for _, w := range p.walkers {
		b, c := w.List.Caps()
		nb, nc = max(nb, b), max(nc, c)
		nt = max(nt, w.tg.Cap())
		s, a := w.d.Caps()
		nstack, nbatch = max(nstack, s), max(nbatch, a)
	}
	for _, w := range p.walkers {
		w.List.Grow(nb, nc)
		w.tg.Grow(nt)
		w.d.Grow(nstack, nbatch)
	}
}

// Workers returns the pool's worker count.
func (p *ForcePool) Workers() int { return len(p.start) }

// Close stops the workers. The pool must not be used afterwards.
func (p *ForcePool) Close() {
	for _, c := range p.start {
		close(c)
	}
}
