// Health monitors: the in-band complement to the msg stall watchdog.
// The watchdog catches a world that stops moving; these catch a world
// that keeps moving while quietly going wrong -- energy drifting past
// tolerance, one rank dominating every step -- plus a no-progress
// check that fires when samples stop arriving at all (e.g. an injected
// rank stall, in the walk or anywhere else: the world is alive in the
// watchdog's eyes for its whole quiet period, but the telemetry
// heartbeat has already flatlined).
//
// Each monitor is edge-triggered with re-arm: it emits one structured
// HealthEvent when its condition first becomes true and arms again
// once the condition clears, so a long excursion produces one event,
// not one per step. Every event is appended to a bounded log (served
// at /health), logged through slog with step attributes, and pinned
// onto every rank's trace timeline via trace.Run.MarkAll. A monitor
// reports; it never stops the run.

package telemetry

import (
	"fmt"
	"log/slog"
	"sync"
	"time"
)

// Severities of a HealthEvent.
const (
	SeverityWarn     = "warn"
	SeverityCritical = "critical"
)

// Monitor names, the HealthEvent.Monitor values and the trace-mark
// suffixes ("health.<name>").
const (
	MonitorEnergyDrift = "energy_drift"
	MonitorImbalance   = "load_imbalance"
	MonitorNoProgress  = "no_progress"
)

// HealthEvent is one structured monitor firing. The JSON names are
// the /health wire format.
type HealthEvent struct {
	Time      time.Time `json:"time"`
	Step      int64     `json:"step"`
	Monitor   string    `json:"monitor"`
	Severity  string    `json:"severity"`
	Message   string    `json:"message"`
	Value     float64   `json:"value"`
	Threshold float64   `json:"threshold"`
}

// MonitorConfig sets the health thresholds. The zero value disables
// every monitor; DefaultMonitors returns the production defaults.
type MonitorConfig struct {
	// EnergyDriftTol fires energy_drift (critical) when
	// |(E-E0)/E0| exceeds it. 0 disables.
	EnergyDriftTol float64
	// ImbalanceMax fires load_imbalance (warn) when max/mean of the
	// per-rank step wall-clocks exceeds it for ImbalanceRuns
	// consecutive samples. 0 disables.
	ImbalanceMax float64
	// ImbalanceRuns is the consecutive-sample debounce (0 = 3): one
	// slow step is scheduling noise, a streak is a sick decomposition.
	ImbalanceRuns int
	// NoProgress fires no_progress (critical) when no sample has been
	// assembled for this long; checked by a background watcher started
	// with StartWatch and on every /health request. 0 disables.
	NoProgress time.Duration
	// Log receives every event as a structured record (nil =
	// slog.Default()).
	Log *slog.Logger
}

// DefaultMonitors returns the production thresholds: 2% energy drift,
// 4x sustained imbalance. NoProgress stays off; drivers enable it with
// their own quiet period (it must exceed the slowest expected step).
func DefaultMonitors() MonitorConfig {
	return MonitorConfig{
		EnergyDriftTol: 0.02,
		ImbalanceMax:   4,
		ImbalanceRuns:  3,
	}
}

// maxEvents bounds the event log; a flapping monitor cannot exhaust
// memory. The newest events win (oldest evicted), matching the sample
// ring's policy.
const maxEvents = 256

// health is the sampler's monitor state.
type health struct {
	s   *Sampler
	cfg MonitorConfig

	mu     sync.Mutex
	log    []HealthEvent
	firing map[string]bool // edge-trigger state per monitor
	imbal  int             // consecutive over-threshold samples

	watchStop chan struct{}
	watchOnce sync.Once
}

func newHealth(s *Sampler) *health {
	h := &health{s: s, cfg: s.cfg.Monitors, firing: map[string]bool{}}
	if h.cfg.ImbalanceRuns <= 0 {
		h.cfg.ImbalanceRuns = 3
	}
	if h.cfg.NoProgress > 0 {
		h.watchStop = make(chan struct{})
		go h.watch()
	}
	return h
}

func (h *health) logger() *slog.Logger {
	if h.cfg.Log != nil {
		return h.cfg.Log
	}
	return slog.Default()
}

// onSample evaluates every per-sample monitor.
func (h *health) onSample(smp *Sample) {
	cfg := &h.cfg
	if cfg.EnergyDriftTol > 0 && smp.Energy != 0 {
		h.edge(MonitorEnergyDrift, abs(smp.EnergyDrift) > cfg.EnergyDriftTol, func() HealthEvent {
			return HealthEvent{
				Step: smp.Step, Monitor: MonitorEnergyDrift, Severity: SeverityCritical,
				Value: smp.EnergyDrift, Threshold: cfg.EnergyDriftTol,
				Message: fmt.Sprintf("energy drift %.4g exceeds tolerance %.4g (E=%.6g, E0=%.6g)",
					smp.EnergyDrift, cfg.EnergyDriftTol, smp.Energy, h.s.e0),
			}
		})
	}
	if cfg.ImbalanceMax > 0 && smp.Imbalance > 0 {
		// The streak counter lives under h.mu: two ranks can assemble
		// consecutive steps concurrently (one rank racing a step ahead
		// is within the sampler's contract), so the debounce must not
		// be a bare field increment.
		streak := h.bumpImbal(smp.Imbalance > cfg.ImbalanceMax)
		h.edge(MonitorImbalance, streak >= cfg.ImbalanceRuns, func() HealthEvent {
			return HealthEvent{
				Step: smp.Step, Monitor: MonitorImbalance, Severity: SeverityWarn,
				Value: smp.Imbalance, Threshold: cfg.ImbalanceMax,
				Message: fmt.Sprintf("per-rank step imbalance %.2fx over %d consecutive samples (threshold %.2fx)",
					smp.Imbalance, streak, cfg.ImbalanceMax),
			}
		})
	}
	// A fresh sample is progress: re-arm the no-progress monitor.
	h.rearm(MonitorNoProgress)
}

// CheckProgress evaluates the no-progress monitor now -- called by the
// background watcher and by every /health request, so even a pull-only
// deployment (no watcher) detects a flatlined run on inspection.
func (h *health) checkProgress() {
	quiet := h.cfg.NoProgress
	if quiet <= 0 {
		return
	}
	last := h.s.lastNs.Load() // 0 until the first sample: quiet runs from start
	idle := time.Duration(h.s.now() - last)
	h.edge(MonitorNoProgress, idle > quiet, func() HealthEvent {
		var step int64
		if smp, ok := h.s.Last(); ok {
			step = smp.Step
		}
		return HealthEvent{
			Step: step, Monitor: MonitorNoProgress, Severity: SeverityCritical,
			Value: idle.Seconds(), Threshold: quiet.Seconds(),
			Message: fmt.Sprintf("no step sample for %v (threshold %v): run is stalled or a rank stopped contributing",
				idle.Round(time.Millisecond), quiet),
		}
	})
}

// watch is the background no-progress poller.
func (h *health) watch() {
	tick := time.NewTicker(h.cfg.NoProgress / 4)
	defer tick.Stop()
	for {
		select {
		case <-h.watchStop:
			return
		case <-tick.C:
			h.checkProgress()
		}
	}
}

func (h *health) stopWatch() {
	if h.watchStop == nil {
		return
	}
	h.watchOnce.Do(func() { close(h.watchStop) })
}

// edge fires ev() once per excursion: on the false->true transition of
// cond. make is only called when the event actually fires.
func (h *health) edge(monitor string, cond bool, make func() HealthEvent) {
	h.mu.Lock()
	if !cond {
		h.firing[monitor] = false
		h.mu.Unlock()
		return
	}
	if h.firing[monitor] {
		h.mu.Unlock()
		return
	}
	h.firing[monitor] = true
	ev := make()
	ev.Time = time.Now()
	if len(h.log) == maxEvents {
		copy(h.log, h.log[1:])
		h.log = h.log[:maxEvents-1]
	}
	h.log = append(h.log, ev)
	h.mu.Unlock()

	h.emit(ev)
}

// bumpImbal advances (or resets) the imbalance streak under the
// monitor lock and returns the new streak length.
func (h *health) bumpImbal(over bool) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if over {
		h.imbal++
	} else {
		h.imbal = 0
	}
	return h.imbal
}

// rearm clears a monitor's firing state without emitting.
func (h *health) rearm(monitor string) {
	h.mu.Lock()
	h.firing[monitor] = false
	h.mu.Unlock()
}

// emit routes a fired event: structured log, trace mark on every rank
// timeline, escalation for criticals.
func (h *health) emit(ev HealthEvent) {
	lg := h.logger()
	attrs := []any{
		"monitor", ev.Monitor, "step", ev.Step,
		"value", ev.Value, "threshold", ev.Threshold,
	}
	if ev.Severity == SeverityCritical {
		lg.Error("health: "+ev.Message, attrs...)
	} else {
		lg.Warn("health: "+ev.Message, attrs...)
	}
	h.s.cfg.Trace.MarkAll("health." + ev.Monitor)
}

// events returns the log oldest-first.
func (h *health) events() []HealthEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]HealthEvent(nil), h.log...)
}
