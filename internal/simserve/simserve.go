// Package simserve is the simulation service: one daemon serving
// many concurrent simulation jobs from a single process -- the
// modern analogue of the paper's Loki serving a production run, with
// throughput-per-box as the figure of merit.
//
// The layering maps service words onto engine words:
//
//	session  = one accepted job: a Spec, a lifecycle, a job-scoped
//	           telemetry stack (Sampler + Registry + HTTP handler)
//	world    = the job's msg.World while it runs: np ranks, abortable,
//	           stall-watchdogged; the unit of failure isolation
//	engines  = the np per-rank engine instances inside the world,
//	           whose persistent state (domain.Decomposer splitters,
//	           core.Sorter scratch, tree.Walker lists) is reused
//	           across every step and sub-step of the job
//
// Admission is one bounded queue: Submit sends an accepted job straight
// onto it and a pool of Workers goroutines drains it FIFO. The pool
// bounds concurrency: at most Workers worlds exist at once, each with
// Spec.NP rank goroutines.
//
// Isolation is PR 5's containment story, promoted to the service
// tier: a rank panic, an injected crash, a stall (watchdog) or a
// cancellation aborts THAT job's world -- every rank of it unwinds
// promptly, the job goes failed/cancelled with the structured
// *msg.WorldError as its error, and the server keeps serving. The
// tests pin a crash-injected job failing while its neighbors
// complete bit-identically to standalone runs.
package simserve

import (
	"fmt"
	"log/slog"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Service-level metric names (the aggregate /metrics exposition;
// per-job registries live under /jobs/{id}/metrics).
const (
	MetricSubmitted = "simserve_jobs_submitted"
	MetricRejected  = "simserve_jobs_rejected"
	MetricCompleted = "simserve_jobs_completed"
	MetricFailed    = "simserve_jobs_failed"
	MetricCancelled = "simserve_jobs_cancelled"
	MetricEvicted   = "simserve_jobs_evicted" // terminal jobs forgotten to bound the job table
	MetricRunning   = "simserve_jobs_running"
	MetricQueued    = "simserve_jobs_queued"
	MetricLatencyNs = "simserve_job_latency_ns" // histogram: submit -> terminal
	MetricRunNs     = "simserve_job_run_ns"     // histogram: started -> terminal
)

// Config sizes the service. Zero values select the defaults noted on
// each field.
type Config struct {
	// Workers bounds concurrently running worlds (default 4).
	Workers int
	// QueueDepth bounds jobs admitted but not yet started; submissions
	// beyond it are rejected (HTTP 429), the honest answer under
	// overload (default 256).
	QueueDepth int
	// MaxBodies / MaxNP cap a single job (defaults 1e6 / 64): one
	// pathological request must not own the box.
	MaxBodies int
	MaxNP     int
	// Watchdog is the per-job stall quiet period; a job making no
	// message progress for this long is aborted and reported failed
	// (default 30s, 0 keeps the default; negative disables).
	Watchdog time.Duration
	// TelemetryCapacity caps each job's sample-ring size (default 1024;
	// a job that takes fewer steps gets a ring of steps+1 samples, so
	// thousands of retained jobs stay cheap).
	TelemetryCapacity int
	// Log is the service logger (nil = slog.Default()).
	Log *slog.Logger
}

// retainTerminal is how many finished jobs stay queryable. Older ones
// are forgotten as newer ones finish (their IDs then answer 410 Gone),
// so the job table is bounded by this plus the jobs admitted and
// running, whatever the service's uptime.
const retainTerminal = 64

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBodies <= 0 {
		c.MaxBodies = 1_000_000
	}
	if c.MaxNP <= 0 {
		c.MaxNP = 64
	}
	if c.Watchdog == 0 {
		c.Watchdog = 30 * time.Second
	}
	if c.TelemetryCapacity <= 0 {
		c.TelemetryCapacity = 1024
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c
}

// Manager owns the job table, the admission queue, and the worker
// pool. All methods are safe for concurrent use.
type Manager struct {
	cfg Config
	lg  *slog.Logger
	reg *metrics.Registry

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	terminal []string // finished jobs still tracked, oldest first

	seq     atomic.Uint64
	backlog atomic.Int64 // admitted, not yet dequeued by a worker
	running atomic.Int64
	// closed is set under mu, together with closing queue, so a Submit
	// that finds it unset under mu may send; read without mu it is only
	// Submit's early refusal.
	closed atomic.Bool

	queue chan *Job
	wg    sync.WaitGroup
}

// New starts a manager with cfg.Workers worker goroutines.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:  cfg,
		lg:   cfg.Log,
		reg:  metrics.NewRegistry(),
		jobs: make(map[string]*Job),
		// The backlog cap guarantees at most QueueDepth jobs sit
		// between admission and dequeue, so a queue of that capacity
		// never blocks Submit's send.
		queue: make(chan *Job, cfg.QueueDepth),
	}
	m.reg.Counter(MetricEvicted) // exposed as 0 until the first eviction
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Registry exposes the service-level aggregate metrics (the /metrics
// route).
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// Submit validates and admits a job. The error distinguishes a bad
// spec (ErrBadSpec wrap, HTTP 400) from overload (ErrOverloaded,
// HTTP 429) and shutdown (ErrClosed, HTTP 503).
func (m *Manager) Submit(spec Spec) (*Job, error) {
	if m.closed.Load() {
		return nil, ErrClosed
	}
	spec = spec.withDefaults()
	inj, err := spec.validate(m.cfg.MaxBodies, m.cfg.MaxNP)
	if err != nil {
		m.reg.Counter(MetricRejected).Add(1)
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	// Admission control: bound admitted-not-yet-started work.
	if n := m.backlog.Add(1); n > int64(m.cfg.QueueDepth) {
		m.backlog.Add(-1)
		m.reg.Counter(MetricRejected).Add(1)
		return nil, ErrOverloaded
	}

	j := &Job{
		ID:        jobID(m.seq.Add(1)),
		Spec:      spec,
		inj:       inj,
		state:     StateQueued,
		submitted: time.Now(),
	}
	j.reg = metrics.NewRegistry()
	j.tel = telemetry.NewSampler(telemetry.Config{
		NP: spec.NP,
		// One sample per force evaluation is all the job can produce,
		// and the ring is retained with the job: do not pin the full
		// default capacity per terminal job.
		Capacity: min(m.cfg.TelemetryCapacity, spec.Steps+1),
		Registry: j.reg,
		Monitors: telemetry.MonitorConfig{
			EnergyDriftTol: 0.02, ImbalanceMax: 4, ImbalanceRuns: 3,
			Log: m.lg.With("job", j.ID),
		},
		Command: "simserve/" + j.ID,
	})
	j.handler = telemetry.Handler(j.tel)

	m.mu.Lock()
	if m.closed.Load() { // closed since the check above
		m.mu.Unlock()
		m.backlog.Add(-1)
		return nil, ErrClosed
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.queue <- j // never blocks: the backlog cap leaves room (see New)
	m.mu.Unlock()
	m.reg.Counter(MetricSubmitted).Add(1)
	m.reg.Gauge(MetricQueued).Set(float64(m.backlog.Load()))
	return j, nil
}

// jobID is the n-th accepted job's ID.
func jobID(n uint64) string { return fmt.Sprintf("j-%06d", n) }

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Evicted reports whether id names a job this manager accepted and
// has since forgotten (HTTP 410, where an ID never issued is 404).
// IDs are issued in sequence, so nothing is kept per forgotten job.
func (m *Manager) Evicted(id string) bool {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "j-"), 10, 64)
	if err != nil || id != jobID(n) || n == 0 || n > m.seq.Load() {
		return false
	}
	_, tracked := m.Get(id)
	return !tracked
}

// retire records that job id just went terminal and forgets the
// oldest finished jobs beyond retainTerminal. Queued and running jobs
// are never on the terminal list, so never evicted.
func (m *Manager) retire(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.terminal = append(m.terminal, id)
	drop := len(m.terminal) - retainTerminal
	if drop <= 0 {
		return
	}
	for _, old := range m.terminal[:drop] {
		delete(m.jobs, old)
	}
	m.terminal = append(m.terminal[:0], m.terminal[drop:]...)
	m.order = slices.DeleteFunc(m.order, func(id string) bool {
		_, tracked := m.jobs[id]
		return !tracked
	})
	m.reg.Counter(MetricEvicted).Add(uint64(drop))
}

// Jobs lists every tracked job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel cancels a job by ID: queued jobs go terminal immediately,
// running jobs have their world aborted.
func (m *Manager) Cancel(id string) error {
	j, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("no such job %s", id)
	}
	st, err := j.cancel()
	if err != nil {
		return err
	}
	if st == StateCancelled {
		// Cancelled straight from the queue: the worker will skip it,
		// so account for it here.
		j.tel.Close()
		m.reg.Counter(MetricCancelled).Add(1)
		m.retire(id)
	}
	return nil
}

// Counts reports the live job-state tally (the /healthz body).
func (m *Manager) Counts() map[State]int {
	counts := map[State]int{}
	for _, j := range m.Jobs() {
		counts[j.State()]++
	}
	return counts
}

// Close stops intake, drains the queue and waits for running jobs.
// Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed.Swap(true) {
		m.mu.Unlock()
		return
	}
	close(m.queue)
	m.mu.Unlock()
	m.wg.Wait()
}

// worker runs queued jobs until the queue closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.backlog.Add(-1)
		m.reg.Gauge(MetricQueued).Set(float64(m.backlog.Load()))
		m.runJob(j)
	}
}

// Sentinel errors of Submit, mapped to HTTP statuses by the edge.
var (
	ErrBadSpec    = fmt.Errorf("simserve: bad job spec")
	ErrOverloaded = fmt.Errorf("simserve: queue full, try again later")
	ErrClosed     = fmt.Errorf("simserve: shutting down")
)
