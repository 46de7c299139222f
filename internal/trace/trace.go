// Package trace is the run-wide structured event layer behind the
// paper-style performance analysis: per-rank ring buffers of spans
// (phase begin/end), instant events, and communication events
// (send/recv with byte sizes). The paper's headline numbers -- 430
// Gflops, 38 flops/interaction, load-balance efficiency -- all come
// from knowing *when* each processor did what and who talked to whom;
// this package records exactly that, cheaply enough to leave in the
// engines.
//
// Cost model:
//
//   - Off (nil *Tracer): every method is a nil-receiver no-op that
//     inlines to a single branch. The hot paths (force kernels, tree
//     walks) are never touched at all; only phase boundaries, message
//     sends and deferral points carry the branch.
//   - On: one mutex-protected append into a fixed-capacity ring per
//     event. The ring keeps the newest events and counts drops, so a
//     long run can never exhaust memory.
//
// A Run groups the per-rank Tracers of one parallel execution under a
// single epoch so cross-rank timelines line up. Export to the Chrome
// trace_event format (chrome://tracing, Perfetto) is in chrome.go.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind uint8

const (
	// KindSpan is an interval [Start, Start+Dur) on a rank's timeline.
	KindSpan Kind = iota
	// KindInstant is a point event.
	KindInstant
	// KindSend is a message departure; Peer is the destination rank.
	KindSend
	// KindRecv is a message arrival; Peer is the source rank.
	KindRecv
)

// Event is one recorded occurrence. Times are nanoseconds since the
// Run epoch, so events from different ranks share one clock.
type Event struct {
	Name  string
	Kind  Kind
	Rank  int
	Start int64 // ns since the run epoch
	Dur   int64 // ns; spans only
	Peer  int   // send: dst rank, recv: src rank; -1 otherwise
	Bytes int64 // comm events: logical payload size
}

// Run is one parallel execution's trace: a shared epoch plus one
// Tracer per rank.
type Run struct {
	epoch time.Time
	ranks []*Tracer
}

// DefaultPerRankEvents is the ring capacity used by NewRun.
const DefaultPerRankEvents = 1 << 14

// NewRun creates a trace for np ranks with the default per-rank ring
// capacity. The epoch is taken now; create the Run immediately before
// the timed region.
func NewRun(np int) *Run { return NewRunCapacity(np, DefaultPerRankEvents) }

// NewRunCapacity creates a trace with an explicit per-rank ring
// capacity (<= 0 means the default).
func NewRunCapacity(np, perRank int) *Run {
	if np < 1 {
		panic("trace: run needs at least one rank")
	}
	if perRank <= 0 {
		perRank = DefaultPerRankEvents
	}
	r := &Run{epoch: time.Now(), ranks: make([]*Tracer, np)}
	for i := range r.ranks {
		r.ranks[i] = &Tracer{run: r, rank: i, buf: make([]Event, 0, perRank), max: perRank}
	}
	return r
}

// Size returns the number of ranks. Nil-safe (0).
func (r *Run) Size() int {
	if r == nil {
		return 0
	}
	return len(r.ranks)
}

// Rank returns rank i's tracer. Nil-safe: a nil Run yields a nil
// Tracer, whose methods are all no-ops.
func (r *Run) Rank(i int) *Tracer {
	if r == nil {
		return nil
	}
	if i < 0 || i >= len(r.ranks) {
		panic(fmt.Sprintf("trace: rank %d out of range [0,%d)", i, len(r.ranks)))
	}
	return r.ranks[i]
}

// Events returns every recorded event across ranks, ordered by start
// time (ties by rank). Nil-safe (nil).
func (r *Run) Events() []Event {
	if r == nil {
		return nil
	}
	var all []Event
	for _, t := range r.ranks {
		all = append(all, t.Events()...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Start != all[j].Start {
			return all[i].Start < all[j].Start
		}
		return all[i].Rank < all[j].Rank
	})
	return all
}

// MarkAll records an instant event on every rank's timeline at the
// same moment -- the msg watchdog uses it to pin where a stall was
// declared across all rank tracks. Nil-safe no-op.
func (r *Run) MarkAll(name string) {
	if r == nil {
		return
	}
	for _, t := range r.ranks {
		t.Instant(name)
	}
}

// Dropped returns the total events discarded because a rank's ring
// wrapped. Nil-safe (0).
func (r *Run) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for _, t := range r.ranks {
		n += t.Dropped()
	}
	return n
}

// Tracer is one rank's event sink: a mutex-protected ring that keeps
// the newest max events. Goroutines other than the rank's own (the msg
// watchdog through Run.MarkAll) may emit concurrently.
type Tracer struct {
	run  *Run
	rank int

	mu      sync.Mutex
	buf     []Event
	head    int // index of the oldest event once the ring is full
	max     int
	dropped uint64
}

// Now returns nanoseconds since the run epoch, the timestamp currency
// of Span. Nil-safe (0), so "t0 := t.Now(); ...; t.Span(name, t0)"
// costs two branches when tracing is off.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.run.epoch).Nanoseconds()
}

func (t *Tracer) emit(ev Event) {
	t.mu.Lock()
	if len(t.buf) < t.max {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.head] = ev
		t.head = (t.head + 1) % t.max
		t.dropped++
	}
	t.mu.Unlock()
}

// Span records an interval that started at start (a Tracer.Now value)
// and ends now, on the rank's main timeline. Nil-safe no-op.
func (t *Tracer) Span(name string, start int64) {
	if t == nil {
		return
	}
	t.emit(Event{Name: name, Kind: KindSpan, Rank: t.rank, Start: start, Dur: t.Now() - start, Peer: -1})
}

// SpanAt records a completed interval from wall-clock bookkeeping
// (e.g. a diag.Timer phase). Nil-safe no-op.
func (t *Tracer) SpanAt(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.emit(Event{Name: name, Kind: KindSpan, Rank: t.rank, Start: start.Sub(t.run.epoch).Nanoseconds(), Dur: d.Nanoseconds(), Peer: -1})
}

// Instant records a point event. Nil-safe no-op.
func (t *Tracer) Instant(name string) {
	if t == nil {
		return
	}
	t.emit(Event{Name: name, Kind: KindInstant, Rank: t.rank, Start: t.Now(), Peer: -1})
}

// Send records a message departure to dst of the given logical size,
// named by the sender's current traffic phase. Nil-safe no-op.
func (t *Tracer) Send(phase string, dst, bytes int) {
	if t == nil {
		return
	}
	t.emit(Event{Name: phase, Kind: KindSend, Rank: t.rank, Start: t.Now(), Peer: dst, Bytes: int64(bytes)})
}

// Recv records a message arrival from src. Nil-safe no-op.
func (t *Tracer) Recv(phase string, src, bytes int) {
	if t == nil {
		return
	}
	t.emit(Event{Name: phase, Kind: KindRecv, Rank: t.rank, Start: t.Now(), Peer: src, Bytes: int64(bytes)})
}

// Events returns this rank's events oldest-first. Nil-safe (nil).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.head:]...)
	out = append(out, t.buf[:t.head]...)
	return out
}

// Dropped returns how many events this rank's ring discarded.
// Nil-safe (0).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
