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
// beyond the original key list. Every request batch also carries one
// bit, "the sender is not finished", so the round loop needs no
// separate termination collective: it ends on the one exchange in
// which nobody asks for anything and nobody raises the bit.
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
	// reqSend and reqRecv are the reused per-peer batches of the
	// request exchange (batchBytes their wire size, bound once),
	// repRecv the reused outer receive buffer of the reply exchange;
	// replies is the reused per-source reply index.
	reqSend, reqRecv []batch[Req]
	batchBytes       func(batch[Req]) int
	replies          [][]Rep
	repRecv          [][]Rep
	// Posted counts requests queued since construction (diagnostic).
	Posted uint64
	// Served counts requests this rank handled (diagnostic).
	Served uint64
	// Rounds counts request/reply rounds executed (the exchange that
	// ends a round loop is not one).
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

// batch is what one rank sends another in the request exchange.
type batch[Req any] struct {
	reqs []Req
	// more is the sender's claim that it is not finished: it posted
	// requests this round or has work that may post some later.
	more bool
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
		reqSend:  make([]batch[Req], c.Size()),
		// The requests and a byte for the flag.
		batchBytes: func(b batch[Req]) int { return reqBytes*len(b.reqs) + 1 },
		replies:    make([][]Rep, c.Size()),
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

// Round is a collective: all ranks must call it together. It flushes
// every queue, serves incoming batches with Handler, and returns the
// replies to this rank's requests, indexed by destination rank and
// aligned with posting order. Ranks with nothing to send still
// participate (they may be serving others). The returned slice (and
// the request batches handed to Handler) are valid until the next
// Round on this engine; steady-state rounds allocate nothing beyond
// what Handler itself allocates and the message layer spends per send.
//
// work is the caller's termination vote: true while it holds work that
// may post requests in a later round. When no rank posted a request or
// voted true, every rank learns so from the request exchange alone:
// the reply exchange is skipped and Round returns (nil, false) on all
// of them, which ends the round loop.
func (e *Engine[Req, Rep]) Round(work bool) ([][]Rep, bool) {
	t0 := e.Trace.Now()
	defer func() { e.Trace.Span("abm.round", t0) }()
	e.c.NoteRound(e.Rounds + 1)
	more := work || e.PendingLocal()
	out := e.queues
	e.queues = e.spare
	for d := range out {
		e.reqSend[d] = batch[Req]{reqs: out[d], more: more}
	}
	e.reqRecv = msg.Alltoall(e.c, e.reqSend, e.reqRecv, e.batchBytes)
	for _, b := range e.reqRecv {
		more = more || b.more
	}
	if !more {
		e.spare = out // all empty: nothing was lent out
		return nil, false
	}
	e.Rounds++
	replies := e.replies
	for src, b := range e.reqRecv {
		replies[src] = nil
		if len(b.reqs) == 0 {
			continue
		}
		e.Served += uint64(len(b.reqs))
		reps := e.Handler(src, b.reqs)
		if len(reps) != len(b.reqs) {
			e.c.Abort(fmt.Errorf("abm: handler returned %d replies for %d requests from rank %d",
				len(reps), len(b.reqs), src))
		}
		replies[src] = reps
	}
	if e.OnReply != nil {
		e.repRecv = msg.AlltoallvFunc(e.c, replies, e.repRecv, e.repBytes, e.OnReply)
	} else {
		e.repRecv = msg.AlltoallvInto(e.c, replies, e.repRecv, e.repBytes)
	}
	// The reply exchange above is the synchronization point: every
	// server has finished reading this round's request batches, so the
	// drained queues can be recycled for posting.
	for d := range out {
		out[d] = out[d][:0]
	}
	e.spare = out
	return e.repRecv, true
}
