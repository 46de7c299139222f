// Package telemetry is the live, in-flight side of the observability
// layer. Where internal/trace and internal/metrics answer questions
// after a run exits (Chrome timelines, RunReport JSON), this package
// answers them *while the run is going*: a lock-light per-step Sampler
// snapshots deltas of the engines' diag.Counters, msg traffic and
// physical invariants (energy, momentum, active fraction, rung
// occupancy, per-rank load imbalance) into a fixed-capacity ring of
// time-series samples; health monitors (monitor.go) evaluate every
// sample and turn "the run is quietly going wrong" into structured
// events; and an HTTP endpoint (http.go) serves the ring, the event
// log, a live RunReport, Prometheus text exposition of the metrics
// Registry, and net/http/pprof -- the same routes a simulation service
// would mount per world.
//
// Cost model, mirroring internal/trace:
//
//   - Off (nil *Sampler): Contribute is a nil-receiver no-op -- one
//     branch, zero allocations on the step path (pinned by
//     TestContributeOffZeroAllocs).
//   - On: each rank pays one uncontended slot mutex and a struct copy
//     per step; the last rank to arrive assembles the world sample
//     under the ring mutex. Nothing touches the force kernels or the
//     tree walks.
//
// Concurrency: every rank calls Contribute exactly once per global
// step, from its own goroutine, right after the step's collective
// completes. The per-slot mutexes make the handoff safe even if one
// rank races a full step ahead of the assembler.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diag"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/vec"
)

// DefaultCapacity is the sample ring size used when Config.Capacity
// is zero: at one sample per step it holds hours of a production run's
// tail, in ~1 MB.
const DefaultCapacity = 4096

// Sample is one assembled world-wide time-series point: per-step
// deltas plus the invariants evaluated at the step boundary. The JSON
// names are the /series wire format.
type Sample struct {
	// Step numbers samples from 1; TMs is milliseconds since the
	// sampler started, StepMs the slowest rank's wall-clock for the
	// step.
	Step   int64   `json:"step"`
	TMs    float64 `json:"t_ms"`
	StepMs float64 `json:"step_ms"`

	// Work deltas under the paper's flop accounting.
	Interactions uint64  `json:"interactions"`
	Flops        uint64  `json:"flops"`
	FlopsRate    float64 `json:"flops_rate"`

	// Traffic deltas across all ranks.
	Msgs  uint64 `json:"msgs"`
	Bytes uint64 `json:"bytes"`

	// Invariants. EnergyDrift is (E - E0)/|E0| against the first
	// sample; MomentumErr is |P - P0|. Zero when no engine reported
	// energy.
	Energy      float64 `json:"energy"`
	EnergyDrift float64 `json:"energy_drift"`
	MomentumErr float64 `json:"momentum_err"`

	// ActiveFraction is this step's active sinks over total sinks
	// (1 for uniform stepping); Rungs the current global occupancy.
	ActiveFraction float64                  `json:"active_fraction"`
	Rungs          [metrics.MaxRungs]uint64 `json:"rungs"`

	// Imbalance is max/mean of the per-rank step wall-clocks (1 =
	// perfectly balanced); the inverse of diag.Balance.Efficiency.
	Imbalance float64 `json:"imbalance"`

	// StallP99Ns is the current walk-stall p99 from the metrics
	// Registry (0 when no histogram is attached).
	StallP99Ns uint64 `json:"stall_p99_ns"`

	// PushHitRate is this step's push-used over pushed cells;
	// WalkEfficiency this step's completed-walk cell visits over all
	// cell visits (diag.Counters.WalkEfficiency).
	PushHitRate    float64 `json:"push_hit_rate"`
	WalkEfficiency float64 `json:"walk_efficiency"`

	// SplitRounds is the most collectives any rank's last
	// decomposition spent on the splitter search; Pushed and PushUsed
	// are this step's pushed cells and push hits across all ranks.
	SplitRounds int    `json:"split_rounds"`
	Pushed      uint64 `json:"pushed"`
	PushUsed    uint64 `json:"push_used"`
	// Collectives is the most collectives any rank entered this step
	// (an allreduce or an allgather counts one).
	Collectives int `json:"collectives_per_step"`

	Bodies int `json:"bodies"`
}

// Config sets up a Sampler.
type Config struct {
	// NP is the number of ranks that will Contribute per step.
	NP int
	// Capacity is the ring size (0 = DefaultCapacity).
	Capacity int
	// Registry, when non-nil, is read for the walk-stall p99 and
	// receives the sampler's own live gauges (telemetry_* series) so
	// /metrics always shows the latest sample.
	Registry *metrics.Registry
	// Trace, when non-nil, gets a MarkAll instant on every health
	// event, pinning the event onto all rank timelines.
	Trace *trace.Run
	// Monitors configures the health checks (monitor.go).
	Monitors MonitorConfig
	// Command names the run in LiveReport ("treebench", ...).
	Command string
}

// slot is one rank's contribution mailbox, mutex-guarded so the
// assembling rank can read it even if its owner races ahead.
type slot struct {
	mu sync.Mutex
	rs metrics.RankInput
	_  [32]byte // pad slots apart; adjacent ranks hammer adjacent slots
}

// totals is the cumulative aggregate the delta of each sample is taken
// against.
type totals struct {
	counters    diag.Counters
	msgs, bytes uint64
	activeSinks uint64
	totalSinks  uint64
	wallNs      int64
}

// Sampler collects per-rank step contributions into a ring of Samples
// and runs the health monitors on each. All methods are safe for
// concurrent use; all are nil-receiver no-ops so a disabled sampler
// costs one branch per call site.
type Sampler struct {
	cfg   Config
	start time.Time

	slots   []slot
	arrived atomic.Int64

	// lastNs is the Now() of the latest assembled sample, the
	// no-progress monitor's heartbeat.
	lastNs atomic.Int64

	mu    sync.Mutex
	ring  []Sample
	head  int   // next write index once the ring is full
	n     int   // live samples (<= cap)
	steps int64 // samples ever assembled (monotonic step number)
	prev  totals
	e0    float64 // first sampled energy
	p0    vec.V3  // first sampled momentum
	seen  bool    // e0/p0 captured

	health *health
}

// NewSampler creates a sampler for np-rank contributions. Call once,
// before the world starts; hand the same *Sampler to every rank.
func NewSampler(cfg Config) *Sampler {
	if cfg.NP < 1 {
		cfg.NP = 1
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	s := &Sampler{
		cfg:   cfg,
		start: time.Now(),
		slots: make([]slot, cfg.NP),
		ring:  make([]Sample, 0, cfg.Capacity),
	}
	s.health = newHealth(s)
	return s
}

// Close retires the background monitors (the no-progress watcher).
// Nil-safe no-op; idempotent.
func (s *Sampler) Close() {
	if s == nil {
		return
	}
	s.health.stopWatch()
}

// Contribute records one rank's record of the step it just finished,
// built by the rank's own goroutine (ownership of its slices passes to
// the sampler). When the last rank of the step arrives, the world
// sample is assembled, pushed into the ring, and handed to the health
// monitors. Nil-safe no-op, so the telemetry-off step path costs one
// branch and zero allocations.
func (s *Sampler) Contribute(rank int, rs metrics.RankInput) {
	if s == nil {
		return
	}
	sl := &s.slots[rank]
	sl.mu.Lock()
	sl.rs = rs
	sl.mu.Unlock()
	if int(s.arrived.Add(1)) == s.cfg.NP {
		s.arrived.Store(0)
		s.assemble()
	}
}

// now returns nanoseconds since the sampler started.
func (s *Sampler) now() int64 { return time.Since(s.start).Nanoseconds() }

// assemble folds the rank slots into one Sample: cumulative sums,
// then deltas against the previous assembly.
func (s *Sampler) assemble() {
	var cum totals
	var kin, pot float64
	var mom vec.V3
	hasEnergy := false
	var stepMaxNs, stepSumNs int64
	var rungs [metrics.MaxRungs]uint64
	bodies, splitRounds, collectives := 0, 0, 0
	for i := range s.slots {
		sl := &s.slots[i]
		sl.mu.Lock()
		rs := sl.rs
		sl.mu.Unlock()
		cum.counters.Add(rs.Counters)
		cum.msgs += rs.Sent.Msgs
		cum.bytes += rs.Sent.Bytes
		cum.activeSinks += rs.Stepping.ActiveSinks
		cum.totalSinks += rs.Stepping.TotalSinks
		if rs.HasEnergy {
			hasEnergy = true
			kin += rs.Kinetic
			pot += rs.Potential
			mom = mom.Add(rs.Momentum)
		}
		if rs.StepNs > stepMaxNs {
			stepMaxNs = rs.StepNs
		}
		stepSumNs += rs.StepNs
		splitRounds = max(splitRounds, rs.SplitRounds)
		collectives = max(collectives, rs.Collectives)
		for r, n := range rs.Rungs {
			rungs[r] += n
		}
		bodies += rs.Bodies
	}
	cum.wallNs = s.now()

	s.mu.Lock()
	s.steps++
	d := cum.counters.Sub(s.prev.counters)
	smp := Sample{
		Step:         s.steps,
		TMs:          float64(cum.wallNs) / 1e6,
		StepMs:       float64(stepMaxNs) / 1e6,
		Interactions: d.Interactions(),
		Flops:        d.Flops(),
		Msgs:         cum.msgs - s.prev.msgs,
		Bytes:        cum.bytes - s.prev.bytes,
		Rungs:        rungs,
		Bodies:       bodies,
		SplitRounds:  splitRounds,
		Collectives:  collectives,
		Pushed:       d.Pushed,
		PushUsed:     d.PushUsed,
	}
	if dw := cum.wallNs - s.prev.wallNs; dw > 0 {
		smp.FlopsRate = float64(smp.Flops) / (float64(dw) / 1e9)
	}
	if hasEnergy {
		smp.Energy = kin + pot
		if !s.seen {
			s.seen = true
			s.e0 = smp.Energy
			s.p0 = mom
		}
		if s.e0 != 0 {
			smp.EnergyDrift = (smp.Energy - s.e0) / abs(s.e0)
		}
		smp.MomentumErr = mom.Sub(s.p0).Norm()
	}
	if dt := cum.totalSinks - s.prev.totalSinks; dt > 0 {
		smp.ActiveFraction = float64(cum.activeSinks-s.prev.activeSinks) / float64(dt)
	}
	if stepSumNs > 0 {
		mean := float64(stepSumNs) / float64(len(s.slots))
		smp.Imbalance = float64(stepMaxNs) / mean
	}
	if s.cfg.Registry != nil {
		smp.StallP99Ns = s.cfg.Registry.Histogram(metrics.StallHistogram).Quantile(0.99)
	}
	smp.PushHitRate = d.PushHitRate()
	smp.WalkEfficiency = d.WalkEfficiency()
	s.prev = cum
	s.push(smp)
	s.mu.Unlock()

	s.lastNs.Store(cum.wallNs)
	s.publish(&smp)
	s.health.onSample(&smp)
}

// push appends a sample, evicting the oldest once full. Caller holds
// s.mu.
func (s *Sampler) push(smp Sample) {
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, smp)
		s.n = len(s.ring)
		return
	}
	s.ring[s.head] = smp
	s.head++
	if s.head == cap(s.ring) {
		s.head = 0
	}
}

// publish mirrors the latest sample into the Registry as telemetry_*
// gauges, so Prometheus scrapes see live values without parsing
// /series.
func (s *Sampler) publish(smp *Sample) {
	reg := s.cfg.Registry
	if reg == nil {
		return
	}
	reg.Counter("telemetry_samples").Add(1)
	reg.Gauge("telemetry_step_ms").Set(smp.StepMs)
	reg.Gauge("telemetry_flops_rate").Set(smp.FlopsRate)
	reg.Gauge("telemetry_energy").Set(smp.Energy)
	reg.Gauge("telemetry_energy_drift").Set(smp.EnergyDrift)
	reg.Gauge("telemetry_active_fraction").Set(smp.ActiveFraction)
	reg.Gauge("telemetry_imbalance").Set(smp.Imbalance)
	reg.Gauge("telemetry_push_hit_rate").Set(smp.PushHitRate)
	reg.Gauge("telemetry_walk_efficiency").Set(smp.WalkEfficiency)
	reg.Gauge("telemetry_split_rounds").Set(float64(smp.SplitRounds))
	reg.Gauge("telemetry_collectives_per_step").Set(float64(smp.Collectives))
	reg.Gauge("telemetry_pushed").Set(float64(smp.Pushed))
	reg.Gauge("telemetry_push_used").Set(float64(smp.PushUsed))
	reg.Gauge("telemetry_bodies").Set(float64(smp.Bodies))
}

// Samples returns the newest max samples oldest-first (max <= 0: all
// buffered). Nil-safe (nil).
func (s *Sampler) Samples(max int) []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, s.n)
	out = append(out, s.ring[s.head:]...)
	out = append(out, s.ring[:s.head]...)
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Last returns the most recent sample, if any. Nil-safe.
func (s *Sampler) Last() (Sample, bool) {
	if s == nil {
		return Sample{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Sample{}, false
	}
	i := s.head - 1
	if i < 0 {
		i = len(s.ring) - 1
	}
	return s.ring[i], true
}

// Events returns the health-event log oldest-first. Nil-safe (nil).
func (s *Sampler) Events() []HealthEvent {
	if s == nil {
		return nil
	}
	return s.health.events()
}

// LiveReport assembles a mid-run RunReport from the ranks' latest
// records: metrics.BuildReport, the code the drivers run at exit, over
// the slots' copies, so it is safe to call from the HTTP goroutine
// while every rank keeps running, and agrees with the exit report on
// everything but the per-phase traffic and the comm matrix, which only
// the finished world has. Nil-safe (nil).
func (s *Sampler) LiveReport() *metrics.RunReport {
	if s == nil {
		return nil
	}
	ranks := make([]metrics.RankInput, len(s.slots))
	for i := range s.slots {
		sl := &s.slots[i]
		sl.mu.Lock()
		ranks[i] = sl.rs
		sl.mu.Unlock()
	}
	return metrics.BuildReport(s.cfg.Command, float64(s.now())/1e9, ranks, nil, s.cfg.Registry)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
