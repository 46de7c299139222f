// Package msg is the message-passing substrate that stands in for MPI:
// a set of "processors" (goroutines) exchanging typed messages through
// unbounded per-rank mailboxes, with the collectives the treecode
// needs (barrier, broadcast, reduce, allreduce, gather, allgather,
// alltoall, alltoallv) built on point-to-point sends.
//
// Two properties matter for the reproduction:
//
//   - Per-rank traffic counters. The paper's machine models convert
//     message counts and byte volumes into network time on ASCI Red or
//     Loki's switched fast ethernet; every Send records its logical
//     payload size against the sender's current phase so
//     internal/perfmodel can replay a run on any machine description.
//
//   - Determinism. Receives name their source, collectives apply
//     reduction operators in rank order, and mailboxes are FIFO per
//     (source, tag), so a parallel run is reproducible bit-for-bit,
//     which the parallel==serial equivalence tests rely on.
//
// Mailboxes are unbounded, so Send never blocks and naive
// communication patterns (ring shifts, all-to-all bursts) cannot
// deadlock; this mirrors MPI's buffered eager protocol for the small
// and medium messages the treecode sends.
package msg

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Message is one point-to-point transfer.
type Message struct {
	Src   int
	Tag   int
	Data  any
	Bytes int // logical payload size used for traffic accounting

	// bumped marks a queued message that an injected reorder has
	// already overtaken once; it is never overtaken again, which is
	// what bounds any message's displacement to one delivery slot.
	bumped bool
	// due, when nonzero, is the injected in-flight deadline: the
	// message sits in the mailbox but is invisible to take/tryTake
	// until due passes. The sender is never blocked -- latency as time
	// on the wire, not as a CPU stall.
	due time.Time
}

type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []Message
	w     *World
}

func newMailbox(w *World) *mailbox {
	m := &mailbox{w: w}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put appends a message (or, under injected reorder, slots it one
// position ahead of the newest queued message of the same (src, tag)
// stream) and bumps the world progress counter the watchdog samples.
func (m *mailbox) put(msg Message, reorder bool) {
	m.mu.Lock()
	if reorder {
		m.putReordered(msg)
	} else {
		m.queue = append(m.queue, msg)
	}
	m.w.progress.Add(1)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// putReordered inserts msg one slot ahead of the tail-most queued
// message of the same (src, tag) stream, a bounded perturbation: a
// message already overtaken once (bumped) is never overtaken again,
// so no message is ever displaced by more than one delivery slot in
// either direction. Caller holds m.mu.
func (m *mailbox) putReordered(msg Message) {
	for i := len(m.queue) - 1; i >= 0; i-- {
		if m.queue[i].Src == msg.Src && m.queue[i].Tag == msg.Tag {
			if m.queue[i].bumped {
				break // keep the one-slot bound
			}
			m.queue[i].bumped = true
			m.queue = append(m.queue, Message{})
			copy(m.queue[i+1:], m.queue[i:])
			m.queue[i] = msg
			return
		}
	}
	m.queue = append(m.queue, msg)
}

// scanDue finds the first queued message of the (src, tag) stream. It
// is delivered once its injected in-flight deadline (if any) has
// passed; until then it holds back the rest of its stream (per-stream
// FIFO). Returns the queue index, or -1 with the deadline to wait for
// (zero if the stream has nothing queued). Caller holds m.mu.
func (m *mailbox) scanDue(src, tag int) (int, time.Time) {
	for i, msg := range m.queue {
		if msg.Src != src || msg.Tag != tag {
			continue
		}
		if !msg.due.IsZero() && msg.due.After(time.Now()) {
			return -1, msg.due
		}
		return i, time.Time{}
	}
	return -1, time.Time{}
}

// take removes and returns the first matching message, blocking until
// one arrives (or, under injected latency, until its in-flight
// deadline passes -- a timer wakes the wait then). An aborted world
// wakes every blocked take (the condvars are broadcast by World.Abort)
// and unwinds the caller with the abort sentinel; the fast path pays
// one atomic load for that. st records where this rank is blocked, but
// only once it actually waits, so a take satisfied from the queue
// never touches it.
func (m *mailbox) take(src, tag int, st *rankState) Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	blocked := false
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		if m.w.aborted.Load() {
			panic(abortUnwind{})
		}
		i, earliest := m.scanDue(src, tag)
		if i >= 0 {
			msg := m.queue[i]
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			if blocked {
				st.clearBlocked()
			}
			return msg
		}
		if !earliest.IsZero() {
			// The message is here but still in flight; wake this wait
			// when it matures. A late or spurious broadcast only causes
			// a harmless rescan; an early one must not be lost, hence
			// wake, not a bare Broadcast.
			d := time.Until(earliest)
			if timer == nil {
				timer = time.AfterFunc(d, m.wake)
			} else {
				timer.Reset(d)
			}
		}
		if !blocked {
			st.setBlocked(src, tag)
			blocked = true
		}
		m.cond.Wait()
	}
}

// wake is the in-flight timer's callback. It broadcasts under m.mu: a
// timer armed with d <= 0 fires at once, and take still holds the lock
// until cond.Wait has registered the waiter, so the broadcast cannot
// fall between the scan that found nothing due and the wait, where it
// would be lost and the rank would park forever.
func (m *mailbox) wake() {
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// tryTake removes and returns the first matching message if one is
// already queued and past any injected in-flight deadline.
func (m *mailbox) tryTake(src, tag int) (Message, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.w.aborted.Load() {
		panic(abortUnwind{})
	}
	if i, _ := m.scanDue(src, tag); i >= 0 {
		msg := m.queue[i]
		m.queue = append(m.queue[:i], m.queue[i+1:]...)
		return msg, true
	}
	return Message{}, false
}

// PhaseTraffic is the communication volume attributed to one phase.
// The JSON tags are the RunReport wire names (internal/metrics).
type PhaseTraffic struct {
	Msgs  uint64 `json:"msgs"`
	Bytes uint64 `json:"bytes"`
}

// Traffic is the per-rank communication record, keyed by phase label.
// Only the owning rank writes it during a run.
type Traffic struct {
	Phases map[string]*PhaseTraffic
	// Dest is this rank's comm-matrix row: volume sent to each
	// destination rank, summed over phases.
	Dest []PhaseTraffic
}

func (t *Traffic) add(phase string, bytes int) {
	p := t.Phases[phase]
	if p == nil {
		p = &PhaseTraffic{}
		t.Phases[phase] = p
	}
	p.Msgs++
	p.Bytes += uint64(bytes)
}

// Total sums over phases.
func (t *Traffic) Total() PhaseTraffic {
	var sum PhaseTraffic
	for _, p := range t.Phases {
		sum.Msgs += p.Msgs
		sum.Bytes += p.Bytes
	}
	return sum
}

// World is one parallel machine instance: mailboxes and traffic
// records for every rank.
type World struct {
	size    int
	boxes   []*mailbox
	traffic []Traffic
	trace   *trace.Run

	// Failure containment (abort.go): the aborted flag is checked by
	// every take, abortCh wakes injected stalls, states carries the
	// per-rank progress snapshot the watchdog and WorldError report.
	aborted  atomic.Bool
	abortMu  sync.Mutex
	abortErr *WorldError
	abortCh  chan struct{}
	states   []rankState

	// progress counts message deliveries and phase transitions; the
	// stall watchdog (watchdog.go) samples it to detect a quiet world.
	progress atomic.Uint64
	inj      *Injector
	wd       *Watchdog
}

// NewWorld creates a world of np ranks without running anything; used
// when the caller manages its own goroutines.
func NewWorld(np int) *World {
	if np < 1 {
		panic("msg: world size must be >= 1")
	}
	w := &World{
		size: np, boxes: make([]*mailbox, np), traffic: make([]Traffic, np),
		abortCh: make(chan struct{}), states: make([]rankState, np),
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox(w)
		w.traffic[i] = Traffic{
			Phases: make(map[string]*PhaseTraffic),
			Dest:   make([]PhaseTraffic, np),
		}
		w.states[i].phase = "init"
	}
	return w
}

// SetInjector attaches a deterministic fault injector (inject.go).
// Must be called before any communication; nil (or never calling
// this) keeps the send/recv hot paths at a single extra branch.
func (w *World) SetInjector(inj *Injector) {
	if inj != nil {
		inj.attach(w)
	}
	w.inj = inj
}

// SetTrace attaches a trace.Run: every Send and Recv then also emits
// a timestamped event on the acting rank's tracer. Must be called
// before any communication; a nil run (or never calling this) keeps
// the hot path free of tracing. The run must have one tracer per
// rank.
func (w *World) SetTrace(r *trace.Run) {
	if r != nil && r.Size() != w.size {
		panic(fmt.Sprintf("msg: trace run has %d ranks, world has %d", r.Size(), w.size))
	}
	w.trace = r
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// RankTraffic returns rank r's traffic record. Only meaningful after
// the run completes.
func (w *World) RankTraffic(r int) *Traffic { return &w.traffic[r] }

// TotalTraffic sums traffic over all ranks and phases.
func (w *World) TotalTraffic() PhaseTraffic {
	var sum PhaseTraffic
	for i := range w.traffic {
		t := w.traffic[i].Total()
		sum.Msgs += t.Msgs
		sum.Bytes += t.Bytes
	}
	return sum
}

// CommMatrix returns the full NxN communication matrix: msgs[s][d]
// and bytes[s][d] are the message count and byte volume rank s sent
// to rank d. Only meaningful after the run completes.
func (w *World) CommMatrix() (msgs, bytes [][]uint64) {
	msgs = make([][]uint64, w.size)
	bytes = make([][]uint64, w.size)
	for s := range w.traffic {
		msgs[s] = make([]uint64, w.size)
		bytes[s] = make([]uint64, w.size)
		for d, pt := range w.traffic[s].Dest {
			msgs[s][d] = pt.Msgs
			bytes[s][d] = pt.Bytes
		}
	}
	return msgs, bytes
}

// MaxRankTraffic returns the largest per-rank totals (the network
// model's bottleneck rank).
func (w *World) MaxRankTraffic() PhaseTraffic {
	var m PhaseTraffic
	for i := range w.traffic {
		t := w.traffic[i].Total()
		if t.Msgs > m.Msgs {
			m.Msgs = t.Msgs
		}
		if t.Bytes > m.Bytes {
			m.Bytes = t.Bytes
		}
	}
	return m
}

// Comm is one rank's handle on the world.
type Comm struct {
	w     *World
	rank  int
	phase string
	// seq numbers collectives so overlapping collective traffic can
	// never be confused; all ranks must call collectives in the same
	// order (the usual SPMD contract).
	seq int
	// collectives counts the collectives this rank has entered, as a
	// caller counts them: a step's latency under a slow network is this
	// many waits on the slowest message, whatever each one carries.
	collectives uint64
	// st mirrors phase/seq/blocked-recv into the world's per-rank
	// state table for the watchdog and WorldError (abort.go). Updated
	// off the per-message hot path: on phase changes, collective
	// entry, and only when a Recv actually blocks.
	st *rankState
}

// Comm returns rank r's communicator.
func (w *World) Comm(r int) *Comm {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("msg: rank %d out of range [0,%d)", r, w.size))
	}
	return &Comm{w: w, rank: r, phase: "init", st: &w.states[r]}
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// Phase labels subsequent traffic for the machine model.
func (c *Comm) Phase(name string) {
	c.phase = name
	c.st.setPhase(name)
	c.w.progress.Add(1)
}

// NoteRound records this rank's current batched-request round in the
// world's state table, so a watchdog dump or WorldError names how far
// each rank's request/reply protocol got.
func (c *Comm) NoteRound(n uint64) {
	c.st.setRound(n)
	c.w.progress.Add(1)
}

// CurrentPhase returns the active phase label.
func (c *Comm) CurrentPhase() string { return c.phase }

// TrafficTotal returns this rank's cumulative outbound traffic. Safe
// to call mid-run from the rank's own goroutine (only the owning rank
// writes its Traffic record); the telemetry sampler reads it once per
// step.
func (c *Comm) TrafficTotal() PhaseTraffic {
	return c.w.traffic[c.rank].Total()
}

// Collectives returns how many collectives this rank has entered. Each
// call of a collective in this package counts one -- an Allreduce or
// an Allgather is one, not its reduce (or gather) and broadcast legs
// -- so the difference across a step is the step's count of global
// waits. Only the rank's own goroutine may call it.
func (c *Comm) Collectives() uint64 { return c.collectives }

// Send delivers data to rank dst under a user tag (>= 0). bytes is
// the logical payload size for traffic accounting; the data itself is
// shared by reference, so the receiver must not mutate it unless the
// sender has handed off ownership.
func (c *Comm) Send(dst, tag int, data any, bytes int) {
	if tag < 0 {
		panic("msg: user tags must be >= 0")
	}
	c.send(dst, tag, data, bytes)
}

func (c *Comm) send(dst, tag int, data any, bytes int) {
	if dst < 0 || dst >= c.w.size {
		panic(fmt.Sprintf("msg: send to rank %d out of range", dst))
	}
	reorder := false
	var due time.Time
	if c.w.inj != nil {
		delay, ro := c.w.inj.onSend(c)
		reorder = ro
		if delay > 0 {
			due = time.Now().Add(delay)
		}
	}
	t := &c.w.traffic[c.rank]
	t.add(c.phase, bytes)
	t.Dest[dst].Msgs++
	t.Dest[dst].Bytes += uint64(bytes)
	if c.w.trace != nil {
		c.w.trace.Rank(c.rank).Send(c.phase, dst, bytes)
	}
	c.w.boxes[dst].put(Message{Src: c.rank, Tag: tag, Data: data, Bytes: bytes, due: due}, reorder)
}

// Recv blocks until the next message of the (src, tag) stream arrives.
func (c *Comm) Recv(src, tag int) Message {
	m := c.w.boxes[c.rank].take(src, tag, c.st)
	if c.w.trace != nil {
		c.w.trace.Rank(c.rank).Recv(c.phase, m.Src, m.Bytes)
	}
	return m
}

// TryRecv returns a matching message if one is already queued.
func (c *Comm) TryRecv(src, tag int) (Message, bool) {
	m, ok := c.w.boxes[c.rank].tryTake(src, tag)
	if ok && c.w.trace != nil {
		c.w.trace.Rank(c.rank).Recv(c.phase, m.Src, m.Bytes)
	}
	return m, ok
}

// nextTag issues the (negative) tag of the next collective and
// advances the sequence counter: tags encode (sequence, op) so
// distinct collectives never collide. The new seq is mirrored into the
// rank state table so a hang report shows how many collectives each
// rank completed.
func (c *Comm) nextTag(op int) int {
	tag := -(c.seq*16 + op + 3)
	c.seq++
	c.collectives++
	c.st.setSeq(c.seq)
	return tag
}

const (
	opBarrier = iota
	opBcast
	opReduce
	opGather
	opAlltoall
)

// Barrier blocks until every rank has entered it. Dissemination
// pattern: log2 P rounds of pairwise messages. Within one barrier the
// source rank of each round is distinct (dist < P), so a single tag
// disambiguated by seq is enough.
func (c *Comm) Barrier() {
	tag := c.nextTag(opBarrier)
	p := c.w.size
	for dist := 1; dist < p; dist <<= 1 {
		dst := (c.rank + dist) % p
		src := (c.rank - dist + p) % p
		c.send(dst, tag, nil, 0)
		c.Recv(src, tag)
	}
}

// Run executes fn on every rank of a fresh world and returns the
// world for traffic inspection. A failure on any rank aborts the
// whole world and is re-raised on the caller as a *WorldError.
func Run(np int, fn func(*Comm)) *World {
	w := NewWorld(np)
	w.Run(fn)
	return w
}

// Run executes fn on every rank of this world, one goroutine per
// rank, and returns when all complete. Callers that need tracing or
// other pre-run configuration use NewWorld + SetTrace + Run instead
// of the package-level Run. A failure on any rank aborts the world
// (every blocked rank unwinds promptly instead of hanging) and is
// re-raised on the caller as a *WorldError naming the first failing
// rank, its cause, and each rank's last known progress.
func (w *World) Run(fn func(*Comm)) {
	if err := w.RunErr(fn); err != nil {
		panic(err)
	}
}

// RunErr is Run returning the structured abort instead of panicking:
// nil on clean completion, else the *WorldError. Drivers that want a
// diagnosable exit (the chaos harness, long simulations) use this.
func (w *World) RunErr(fn func(*Comm)) *WorldError {
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				if _, secondary := p.(abortUnwind); secondary {
					// This rank unwound because some other rank
					// failed first; nothing new to report.
					return
				}
				w.Abort(rank, causeOf(p))
			}()
			fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	if w.wd != nil {
		w.wd.Stop()
	}
	w.abortMu.Lock()
	err := w.abortErr
	w.abortMu.Unlock()
	return err
}
