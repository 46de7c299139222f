// Deterministic fault injection for the message substrate. The
// runtime's containment story (abort.go, watchdog.go) is only
// credible if the failure modes it contains can be manufactured on
// demand; the Injector does that with a seeded per-rank generator, so
// a chaos run is exactly reproducible from its seed: the same rank
// crashes at the same send in the same phase every time. Injection
// off (nil injector) costs one branch on the send and recv paths;
// everything here is test tooling and ships disabled.

package msg

import (
	"fmt"
	"sync/atomic"
	"time"
)

// InjectedCrash is the abort cause of a crash fault: the injected
// analogue of a rank dying mid-protocol, used to reproduce the
// one-rank-panics/world-deadlocks class.
type InjectedCrash struct {
	Rank  int
	Phase string
}

func (e *InjectedCrash) Error() string {
	return fmt.Sprintf("msg: injected crash on rank %d in phase %q", e.Rank, e.Phase)
}

// InjectorStats tallies what an Injector actually did.
type InjectorStats struct {
	Delays, Reorders, Stalls, Crashes uint64
}

// Injector perturbs the message substrate deterministically: each
// rank draws from its own seeded generator in program order, so the
// fault schedule depends only on (Seed, config, the run's own
// communication pattern) -- never on goroutine interleaving. Attach
// with World.SetInjector before any communication.
//
// Fault kinds, all off at their zero values:
//
//   - Latency: a message spends up to MaxLatency in flight before it
//     becomes visible to the receiver. The sender is never blocked and
//     the receiver's CPU stays free: exactly the latency the paper's
//     asynchronous batched messages are designed to hide.
//     Delivery order per (src, tag) stream is unchanged, so results
//     stay bit-identical.
//   - Reorder: a message is delivered one slot ahead of the newest
//     queued message of its (src, tag) stream -- a bounded FIFO
//     violation. Off by default because FIFO order is what makes runs
//     bit-reproducible; enable only in chaos tests.
//   - Stall: the sending rank goes quiet for StallDur (or until the
//     world aborts, whichever is first) -- watchdog bait.
//   - Crash: the sending rank panics with *InjectedCrash -- abort
//     path bait.
type Injector struct {
	Seed uint64

	// CrashProb is the per-send probability the sending rank panics;
	// CrashPhase restricts crashes to sends in that phase ("" = any);
	// MaxCrashes caps world-wide injected crashes (0 means 1).
	CrashProb  float64
	CrashPhase string
	MaxCrashes int

	// StallProb is the per-send probability the rank stalls for
	// StallDur (0 means 30s); StallPhase restricts it ("" = any);
	// MaxStalls caps world-wide injected stalls (0 means 1).
	StallProb  float64
	StallPhase string
	StallDur   time.Duration
	MaxStalls  int

	// LatencyProb is the per-send probability of an in-flight delivery
	// delay, drawn uniformly in (0, MaxLatency] (0 means 100µs).
	LatencyProb float64
	MaxLatency  time.Duration

	// ReorderProb is the per-send probability of the bounded one-slot
	// reorder. Leave 0 to preserve FIFO determinism.
	ReorderProb float64

	w       *World
	rng     []uint64
	crashes atomic.Int64
	stalls  atomic.Int64
	stats   [4]atomic.Uint64
}

const (
	statDelays = iota
	statReorders
	statStalls
	statCrashes
)

func (inj *Injector) attach(w *World) {
	if inj.MaxCrashes <= 0 {
		inj.MaxCrashes = 1
	}
	if inj.MaxStalls <= 0 {
		inj.MaxStalls = 1
	}
	if inj.StallDur <= 0 {
		inj.StallDur = 30 * time.Second
	}
	if inj.MaxLatency <= 0 {
		inj.MaxLatency = 100 * time.Microsecond
	}
	inj.w = w
	inj.rng = make([]uint64, w.size)
	for r := range inj.rng {
		// Distinct, well-mixed per-rank streams from one seed.
		inj.rng[r] = (inj.Seed+1)*0x9e3779b97f4a7c15 ^ uint64(r+1)*0xbf58476d1ce4e5b9
	}
}

// next advances rank r's generator (splitmix64). Only rank r's own
// goroutine draws from stream r, so no synchronization is needed and
// the draw order is the rank's program order.
func (inj *Injector) next(r int) uint64 {
	x := inj.rng[r] + 0x9e3779b97f4a7c15
	inj.rng[r] = x
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll draws a uniform float in [0, 1) from rank r's stream. A draw
// happens for every enabled fault kind on every call site, so the
// schedule of one kind is independent of whether another fired.
func (inj *Injector) roll(r int) float64 {
	return float64(inj.next(r)>>11) / (1 << 53)
}

// Stats returns what was injected so far.
func (inj *Injector) Stats() InjectorStats {
	return InjectorStats{
		Delays:   inj.stats[statDelays].Load(),
		Reorders: inj.stats[statReorders].Load(),
		Stalls:   inj.stats[statStalls].Load(),
		Crashes:  inj.stats[statCrashes].Load(),
	}
}

// onSend runs the send-side faults, returning the message's in-flight
// delay (0 = deliverable immediately) and whether it should be
// delivered reordered.
func (inj *Injector) onSend(c *Comm) (delay time.Duration, reorder bool) {
	r := c.rank
	if inj.CrashProb > 0 && inj.roll(r) < inj.CrashProb &&
		(inj.CrashPhase == "" || inj.CrashPhase == c.phase) {
		if inj.crashes.Add(1) <= int64(inj.MaxCrashes) {
			inj.stats[statCrashes].Add(1)
			panic(&InjectedCrash{Rank: r, Phase: c.phase})
		}
	}
	if inj.StallProb > 0 && inj.roll(r) < inj.StallProb &&
		(inj.StallPhase == "" || inj.StallPhase == c.phase) {
		if inj.stalls.Add(1) <= int64(inj.MaxStalls) {
			inj.stats[statStalls].Add(1)
			inj.stall()
		}
	}
	if inj.LatencyProb > 0 && inj.roll(r) < inj.LatencyProb {
		inj.stats[statDelays].Add(1)
		delay = time.Duration(inj.next(r)%uint64(inj.MaxLatency)) + 1
	}
	if inj.ReorderProb > 0 && inj.roll(r) < inj.ReorderProb {
		inj.stats[statReorders].Add(1)
		reorder = true
	}
	return delay, reorder
}

// stall parks the calling rank for StallDur -- unless the world
// aborts first (typically the watchdog declaring the stall), in which
// case the rank unwinds immediately like any other survivor.
func (inj *Injector) stall() {
	t := time.NewTimer(inj.StallDur)
	defer t.Stop()
	select {
	case <-inj.w.abortCh:
		panic(abortUnwind{})
	case <-t.C:
	}
}
