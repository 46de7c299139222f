// Stall watchdog: turns a silent hang into a diagnosable report. The
// abort path (abort.go) contains failures that announce themselves;
// the watchdog catches the ones that don't -- a protocol mismatch
// where every rank waits on a message nobody will send, an injected
// stall, a lost wakeup. It samples the world's progress counter
// (bumped on every message delivery, phase change, and request-round
// note); after a configurable quiet period with no movement it dumps
// the per-rank state table plus all goroutine stacks (diag.Stacks),
// marks every rank's trace timeline, and aborts the world, so the run
// ends in a structured *WorldError instead of hanging forever.

package msg

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"

	"repro/internal/diag"
)

// StallError is the abort cause of a watchdog-declared stall.
type StallError struct {
	// Quiet is how long the world made no progress.
	Quiet time.Duration
}

func (e *StallError) Error() string {
	return fmt.Sprintf("msg: no progress for %v (stalled)", e.Quiet)
}

// WatchdogConfig controls the stall monitor.
type WatchdogConfig struct {
	// Quiet is the no-progress period after which the world is
	// declared stalled and aborted, sampled every Quiet/4. Must exceed
	// the run's longest communication-free compute stretch.
	Quiet time.Duration
	// Out receives the stall dump (nil = os.Stderr). Ignored when Log
	// is set.
	Out io.Writer
	// Log, when non-nil, receives the dump as structured records
	// instead of Out: one error record for the stall, one per-rank
	// record with rank/phase/seq/round/blocked attributes, and the
	// stacks as an attribute. When nil, a JSON handler is built on Out,
	// so the dump is machine-parseable either way and interleaves with
	// the drivers' shared slog stream.
	Log *slog.Logger
	// Stacks includes every goroutine's stack in the dump.
	Stacks bool
}

// Watchdog is a running stall monitor; see World.StartWatchdog.
type Watchdog struct {
	w    *World
	cfg  WatchdogConfig
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartWatchdog launches a stall monitor on this world. Call before
// Run; the monitor retires itself when the run completes (RunErr
// stops it) or when it fires. At most one watchdog per world.
func (w *World) StartWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Quiet <= 0 {
		panic("msg: watchdog needs a positive quiet period")
	}
	if cfg.Out == nil {
		cfg.Out = os.Stderr
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewJSONHandler(cfg.Out, nil))
	}
	if w.wd != nil {
		panic("msg: world already has a watchdog")
	}
	wd := &Watchdog{w: w, cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	w.wd = wd
	go wd.loop()
	return wd
}

// Stop retires the watchdog without firing. Idempotent; returns after
// the monitor goroutine has exited.
func (wd *Watchdog) Stop() {
	wd.once.Do(func() { close(wd.stop) })
	<-wd.done
}

func (wd *Watchdog) loop() {
	defer close(wd.done)
	last := wd.w.progress.Load()
	lastChange := time.Now()
	tick := time.NewTicker(wd.cfg.Quiet / 4)
	defer tick.Stop()
	for {
		select {
		case <-wd.stop:
			return
		case <-wd.w.abortCh:
			return // the world already failed for a named reason
		case <-tick.C:
			cur := wd.w.progress.Load()
			if cur != last {
				last, lastChange = cur, time.Now()
				continue
			}
			quiet := time.Since(lastChange)
			if quiet < wd.cfg.Quiet {
				continue
			}
			wd.fire(quiet)
			return
		}
	}
}

// fire dumps the diagnosis and aborts the world.
func (wd *Watchdog) fire(quiet time.Duration) {
	states := wd.w.States()
	lg := wd.cfg.Log
	lg.Error("msg watchdog: no progress, aborting world",
		"quiet", quiet.Round(time.Millisecond).String(), "ranks", len(states))
	for _, s := range states {
		blocked := "-"
		if s.Blocked {
			blocked = fmt.Sprintf("recv src=%d tag=%d", s.BlockedSrc, s.BlockedTag)
		}
		lg.Error("msg watchdog: rank state",
			"rank", s.Rank, "phase", s.Phase, "seq", s.Seq, "round", s.Round,
			"blocked", blocked)
	}
	if wd.cfg.Stacks {
		lg.Error("msg watchdog: goroutine stacks", "stacks", string(diag.Stacks()))
	}
	wd.w.trace.MarkAll("watchdog.stall")
	wd.w.Abort(RankWatchdog, &StallError{Quiet: quiet})
}
