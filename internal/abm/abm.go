// Package abm implements the paper's "asynchronous batched messages"
// paradigm: instead of stalling the tree walk on every non-local
// access, requests for remote data are queued per destination while
// the walk context-switches to other work; queued batches are then
// exchanged in bulk, each side serves what it received with an active
// message-style handler, and replies return batched the same way.
//
// In this in-process reproduction a batch exchange is one collective
// round: every rank flushes its queues with an all-to-all, serves the
// requests that arrived, and collects the replies to its own
// requests. The engine guarantees replies come back aligned with the
// posted requests (per destination, in posting order), which is what
// lets the treecode insert fetched cells without any bookkeeping
// beyond the original key list.
//
// Whether a round is needed at all is a smaller question, and Vote
// answers it with one allreduce: 2(P-1) one-byte messages, where the
// all-to-all of empty batches that used to carry the answer was P(P-1).
// A round loop is "for Vote(work) { Round() }". hotengine runs it only
// with its push off: behind the push nobody is parked, so a walk phase
// ends without asking, and a group that parks there aborts the world.
package abm

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/trace"
)

// Engine batches Req values per destination rank and exchanges them
// in rounds, invoking Handler on the serving side.
type Engine[Req, Rep any] struct {
	c        *msg.Comm
	reqBytes int
	repBytes int
	// Handler serves a batch of requests from src, returning exactly
	// one reply per request, in order. The request slices are recycled
	// after the round completes; a handler must not retain them past
	// its own return.
	Handler func(src int, reqs []Req) []Rep
	queues  [][]Req
	// spare holds the previous round's drained queues (lengths reset,
	// capacities kept); Round swaps it with queues so steady-state
	// posting allocates nothing. The reply Alltoallv is what makes the
	// swap safe: a rank's Round only returns after every server has
	// read its request batches (the replies prove it), so by the time
	// the recycled arrays take new posts, nobody aliases them.
	spare [][]Req
	// reqRecv and repRecv are the reused outer receive buffers of the
	// request and reply exchanges; replies is the reused per-source
	// reply index.
	reqRecv [][]Req
	replies [][]Rep
	repRecv [][]Rep
	// Posted counts requests queued since construction (diagnostic).
	Posted uint64
	// Served counts requests this rank handled (diagnostic).
	Served uint64
	// Rounds counts request/reply rounds executed.
	Rounds uint64
	// Trace, when non-nil, receives one "abm.round" span per Round
	// call on this rank's timeline (nil = off, zero cost).
	Trace *trace.Tracer
	// OnReply, when set, is invoked on the calling goroutine as each
	// source's reply batch arrives during Round (in source order, the
	// local batch at its own position), instead of the caller reading
	// the returned slice afterwards. Early batches are processed while
	// later sources are still in flight (the tree walk imports cells
	// and readies the groups waiting on them as each batch lands).
	// Must not communicate; batches remain valid until the next Round.
	OnReply func(src int, reps []Rep)
}

// New creates an engine on communicator c. reqBytes and repBytes are
// the logical wire sizes per request and per reply for traffic
// accounting.
func New[Req, Rep any](c *msg.Comm, reqBytes, repBytes int, handler func(src int, reqs []Req) []Rep) *Engine[Req, Rep] {
	return &Engine[Req, Rep]{
		c:        c,
		reqBytes: reqBytes,
		repBytes: repBytes,
		Handler:  handler,
		queues:   make([][]Req, c.Size()),
		spare:    make([][]Req, c.Size()),
		replies:  make([][]Rep, c.Size()),
	}
}

// Post queues one request for rank dst. Posting to the local rank is
// allowed; it is served locally during the next Round.
func (e *Engine[Req, Rep]) Post(dst int, r Req) {
	e.queues[dst] = append(e.queues[dst], r)
	e.Posted++
}

// PendingLocal reports whether this rank has unflushed requests.
func (e *Engine[Req, Rep]) PendingLocal() bool {
	for _, q := range e.queues {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

// Vote is a collective: it reports, identically on every rank, whether
// any rank has unflushed requests or holds work that may post some
// later (work, the caller's own claim). False ends a round loop.
func (e *Engine[Req, Rep]) Vote(work bool) bool {
	return msg.Allreduce(e.c, work || e.PendingLocal(), func(a, b bool) bool { return a || b }, 1)
}

// Round is a collective: all ranks must call it together. It flushes
// every queue, serves incoming batches with Handler, and returns the
// replies to this rank's requests, indexed by destination rank and
// aligned with posting order. Ranks with nothing to send still
// participate (they may be serving others). The returned slice (and
// the request batches handed to Handler) are valid until the next
// Round on this engine; steady-state rounds allocate nothing beyond
// what Handler itself allocates and the message layer spends per send.
func (e *Engine[Req, Rep]) Round() [][]Rep {
	t0 := e.Trace.Now()
	defer func() { e.Trace.Span("abm.round", t0) }()
	e.c.NoteRound(e.Rounds + 1)
	out := e.queues
	e.queues = e.spare
	e.reqRecv = msg.AlltoallvInto(e.c, out, e.reqRecv, e.reqBytes)
	e.Rounds++
	replies := e.replies
	for src, reqs := range e.reqRecv {
		replies[src] = nil
		if len(reqs) == 0 {
			continue
		}
		e.Served += uint64(len(reqs))
		reps := e.Handler(src, reqs)
		if len(reps) != len(reqs) {
			e.c.Abort(fmt.Errorf("abm: handler returned %d replies for %d requests from rank %d",
				len(reps), len(reqs), src))
		}
		replies[src] = reps
	}
	e.repRecv = msg.AlltoallvFunc(e.c, replies, e.repRecv, e.repBytes, nil, e.OnReply)
	// The reply exchange above is the synchronization point: every
	// server has finished reading this round's request batches, so the
	// drained queues can be recycled for posting.
	for d := range out {
		out[d] = out[d][:0]
	}
	e.spare = out
	return e.repRecv
}
