// Failure containment: abortable worlds. The substrate's collectives
// are fragile by construction -- every rank blocks on named receives,
// so one rank dying mid-collective used to leave every survivor
// parked in mailbox.take forever while Run waited on wg.Wait (the
// deadlock class behind the PR 4 incident). World.Abort is the root
// fix: it records the first failure, flips a world-wide flag, and
// broadcasts every mailbox condvar so each blocked rank wakes, sees
// the flag, and unwinds promptly. Run then re-raises one structured
// *WorldError naming the first failing rank, its cause, and every
// rank's last known progress (phase, collective seq, batched-request
// round, blocked receive).

package msg

import (
	"fmt"
	"strings"
	"sync"
)

// abortUnwind is the panic sentinel a rank raises to unwind after the
// world has aborted for some other rank's failure; Run swallows it so
// only the primary cause is reported.
type abortUnwind struct{}

// rankState is one rank's coarse progress, kept current off the
// per-message hot path (phase changes, collective entry, request
// rounds, and blocking receives only) and snapshotted by the watchdog
// and by Abort.
type rankState struct {
	mu         sync.Mutex
	phase      string
	seq        int
	round      uint64
	blocked    bool
	blockedSrc int
	blockedTag int
}

func (st *rankState) setPhase(p string) {
	st.mu.Lock()
	st.phase = p
	st.mu.Unlock()
}

func (st *rankState) setSeq(s int) {
	st.mu.Lock()
	st.seq = s
	st.mu.Unlock()
}

func (st *rankState) setRound(r uint64) {
	st.mu.Lock()
	st.round = r
	st.mu.Unlock()
}

func (st *rankState) setBlocked(src, tag int) {
	st.mu.Lock()
	st.blocked, st.blockedSrc, st.blockedTag = true, src, tag
	st.mu.Unlock()
}

func (st *rankState) clearBlocked() {
	st.mu.Lock()
	st.blocked = false
	st.mu.Unlock()
}

// RankState is the published snapshot of one rank's progress at abort
// or watchdog time.
type RankState struct {
	Rank int
	// Phase is the rank's current traffic phase label.
	Phase string
	// Seq counts completed collective entries.
	Seq int
	// Round is the rank's last noted batched-request round (abm).
	Round uint64
	// Blocked reports the rank was parked in a blocking Recv, on
	// (BlockedSrc, BlockedTag).
	Blocked    bool
	BlockedSrc int
	BlockedTag int
}

func (s RankState) String() string {
	b := "-"
	if s.Blocked {
		b = fmt.Sprintf("recv src=%d tag=%d", s.BlockedSrc, s.BlockedTag)
	}
	return fmt.Sprintf("rank %d: phase=%q seq=%d round=%d blocked=%s", s.Rank, s.Phase, s.Seq, s.Round, b)
}

// States snapshots every rank's progress. Safe to call from any
// goroutine at any time (the watchdog calls it concurrently with the
// run).
func (w *World) States() []RankState {
	out := make([]RankState, w.size)
	for i := range w.states {
		st := &w.states[i]
		st.mu.Lock()
		out[i] = RankState{
			Rank: i, Phase: st.phase, Seq: st.seq, Round: st.round,
			Blocked: st.blocked, BlockedSrc: st.blockedSrc, BlockedTag: st.blockedTag,
		}
		st.mu.Unlock()
	}
	return out
}

// WorldError is the structured failure of an aborted world: the first
// failing rank (RankWatchdog for a watchdog-declared stall), its
// cause, and the per-rank progress table captured at abort time.
type WorldError struct {
	Rank  int
	Cause error
	Ranks []RankState
}

// RankWatchdog is the WorldError.Rank value of an abort declared by
// the stall watchdog rather than by a failing rank.
const RankWatchdog = -1

func (e *WorldError) Error() string {
	var b strings.Builder
	who := fmt.Sprintf("rank %d", e.Rank)
	if e.Rank == RankWatchdog {
		who = "watchdog"
	}
	fmt.Fprintf(&b, "msg: world aborted by %s: %v", who, e.Cause)
	for _, s := range e.Ranks {
		fmt.Fprintf(&b, "\n  %s", s)
	}
	return b.String()
}

func (e *WorldError) Unwrap() error { return e.Cause }

// causeOf normalizes a recovered panic value into the abort cause.
func causeOf(p any) error {
	if err, ok := p.(error); ok {
		return err
	}
	return fmt.Errorf("panic: %v", p)
}

// Abort fails the whole world: the first call records (rank, cause)
// plus a snapshot of every rank's progress, then wakes every blocked
// receive so all ranks unwind promptly instead of deadlocking. Later
// calls are no-ops beyond the wakeup. rank is the failing rank, or
// RankWatchdog for an external monitor.
func (w *World) Abort(rank int, cause error) {
	w.abortMu.Lock()
	if w.abortErr == nil {
		w.abortErr = &WorldError{Rank: rank, Cause: cause, Ranks: w.States()}
		w.aborted.Store(true)
		close(w.abortCh)
	}
	w.abortMu.Unlock()
	for _, b := range w.boxes {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// Err returns the world's abort error, or nil while it is healthy.
func (w *World) Err() *WorldError {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortErr
}

// Abort fails the world from inside a rank: it records this rank as
// the first failure (if no earlier one exists) and unwinds the
// calling goroutine immediately. Protocol layers use it to convert
// "stuck" conditions (request rounds exceeded, handler contract
// violations) into a prompt world-wide abort instead of a panic that
// deadlocks the survivors.
func (c *Comm) Abort(cause error) {
	c.w.Abort(c.rank, cause)
	panic(abortUnwind{})
}
