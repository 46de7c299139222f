// Job model: what a simulation request looks like on the wire, the
// lifecycle it moves through, and the result it leaves behind. A Job
// is the service's unit of isolation -- each one runs in its own msg
// world, so its failure modes (rank panic, stall, cancellation) are
// contained by PR 5's abort machinery and surface here as a terminal
// state, never as a server exit.

package simserve

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/telemetry"
)

// Physics names the three engines the service can instantiate.
const (
	PhysicsGravity = "gravity"
	PhysicsSPH     = "sph"
	PhysicsVortex  = "vortex"
)

// IC names the initial-condition generators per physics.
const (
	ICPlummer   = "plummer"    // gravity (default)
	ICSphere    = "sphere"     // gravity: cold uniform sphere
	ICGasSphere = "gas-sphere" // sph (default)
	ICRings     = "rings"      // vortex (default): two offset vortex rings
)

// State is a job's lifecycle position. Transitions only move forward:
//
//	queued -> running -> completed | failed
//	queued | running -> cancelled
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a job in this state is finished for good.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCancelled
}

// Spec is the POST /jobs request body: everything needed to
// reproduce the run. The zero value of each optional field selects
// the physics' production default, so {"physics":"gravity","n":10000,
// "np":4,"steps":3} is a complete request.
type Spec struct {
	// Physics selects the engine: gravity (default), sph, vortex.
	Physics string `json:"physics"`
	// IC selects the initial conditions ("" = the physics' default).
	IC string `json:"ic,omitempty"`
	// N is the problem size: bodies for gravity/sph, points around
	// each ring for vortex.
	N int `json:"n"`
	// NP is the rank count of the job's world.
	NP int `json:"np"`
	// Steps is the timestep count (0 = a single force evaluation).
	Steps int `json:"steps"`
	// DT is the timestep (0 = the physics default).
	DT float64 `json:"dt,omitempty"`
	// DTMode is uniform (default) or block; Eta scales the block
	// criterion (0 = 0.02).
	DTMode string  `json:"dtmode,omitempty"`
	Eta    float64 `json:"eta,omitempty"`
	// Tol is the Salmon-Warren acceleration error bound for gravity
	// walks (0 = 1e-4).
	Tol float64 `json:"tol,omitempty"`
	// Seed seeds the IC generator (0 = 42, the drivers' default).
	Seed int64 `json:"seed,omitempty"`
	// Chaos is a deterministic fault-injection spec (test harness;
	// same grammar as the drivers' -chaos flag). A crash or stall it
	// injects fails THIS job, nothing else.
	Chaos string `json:"chaos,omitempty"`
}

// withDefaults returns the spec with zero-valued optionals resolved,
// so identical requests hash identically no matter how sparse the
// JSON was.
func (sp Spec) withDefaults() Spec {
	if sp.Physics == "" {
		sp.Physics = PhysicsGravity
	}
	if sp.IC == "" {
		switch sp.Physics {
		case PhysicsSPH:
			sp.IC = ICGasSphere
		case PhysicsVortex:
			sp.IC = ICRings
		default:
			sp.IC = ICPlummer
		}
	}
	if sp.DTMode == "" {
		sp.DTMode = "uniform"
	}
	if sp.Eta == 0 {
		sp.Eta = 0.02
	}
	if sp.Tol == 0 {
		sp.Tol = 1e-4
	}
	if sp.Seed == 0 {
		sp.Seed = 42
	}
	if sp.DT == 0 {
		switch sp.Physics {
		case PhysicsSPH:
			sp.DT = 4e-3
		case PhysicsVortex:
			sp.DT = 0.02
		default:
			sp.DT = 1e-3
		}
	}
	return sp
}

// validate rejects a malformed or oversized spec with a one-line
// error (HTTP 400 at the edge). limits come from the manager config.
func (sp Spec) validate(maxBodies, maxNP int) (*msg.Injector, error) {
	switch sp.Physics {
	case PhysicsGravity:
		if sp.IC != ICPlummer && sp.IC != ICSphere {
			return nil, fmt.Errorf("gravity ic must be %q or %q (got %q)", ICPlummer, ICSphere, sp.IC)
		}
	case PhysicsSPH:
		if sp.IC != ICGasSphere {
			return nil, fmt.Errorf("sph ic must be %q (got %q)", ICGasSphere, sp.IC)
		}
	case PhysicsVortex:
		if sp.IC != ICRings {
			return nil, fmt.Errorf("vortex ic must be %q (got %q)", ICRings, sp.IC)
		}
		if sp.DTMode == "block" {
			return nil, fmt.Errorf("vortex jobs are uniform-step only")
		}
	default:
		return nil, fmt.Errorf("unknown physics %q (want gravity, sph or vortex)", sp.Physics)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"dt", sp.DT}, {"tol", sp.Tol}, {"eta", sp.Eta}} {
		if !cliutil.Positive(f.v) {
			return nil, fmt.Errorf("%s must be finite and > 0 (got %g)", f.name, f.v)
		}
	}
	inj, err := cliutil.Flags{
		N: sp.N, Procs: sp.NP, Steps: sp.Steps, DTMode: sp.DTMode, Eta: sp.Eta,
		Chaos: sp.Chaos,
	}.Validate()
	if err != nil {
		return nil, err
	}
	// N first: Bodies multiplies a vortex N by 8, which can wrap.
	if sp.N > maxBodies || sp.Bodies() > maxBodies {
		return nil, fmt.Errorf("job too large: %d bodies exceeds the per-job cap %d", sp.Bodies(), maxBodies)
	}
	if sp.NP > maxNP {
		return nil, fmt.Errorf("np %d exceeds the per-job cap %d", sp.NP, maxNP)
	}
	return inj, nil
}

// Bodies is the body count the spec will simulate (vortex rings
// expand N ring points into 2 rings x N x vortexCore core points).
func (sp Spec) Bodies() int {
	if sp.Physics == PhysicsVortex {
		return 2 * sp.N * vortexCore
	}
	return sp.N
}

// Result is what a completed job leaves behind.
type Result struct {
	// Bodies is the final body count across ranks.
	Bodies int `json:"bodies"`
	// Interactions and Flops are the run totals under the paper's
	// 38-flop accounting.
	Interactions uint64 `json:"interactions"`
	Flops        uint64 `json:"flops"`
	// ForcesHash is an FNV-64a digest over every rank's final (ID,
	// Acc) columns in rank-major order -- bit-for-bit deterministic
	// for a given (spec, np, seed), so two runs of the same spec (or
	// a service run vs the standalone driver) can be compared without
	// shipping the state.
	ForcesHash string `json:"forces_hash"`
	// WallMs is the job's in-world wall clock.
	WallMs float64 `json:"wall_ms"`
}

// Job is one tracked simulation: spec, lifecycle, result, and the
// job-scoped telemetry stack (sampler + registry + mounted HTTP
// handler). All mutable fields are guarded by mu.
type Job struct {
	ID string
	// Spec is the defaulted, validated request (immutable).
	Spec Spec

	// tel/reg/handler are the job-scoped telemetry stack, created at
	// submit so /jobs/{id}/series answers (empty) even while queued.
	tel     *telemetry.Sampler
	reg     *metrics.Registry
	handler http.Handler
	inj     *msg.Injector

	mu        sync.Mutex
	state     State
	err       string
	world     *msg.World // non-nil only while running
	cancelled bool       // cancel requested (may precede world creation)
	result    *Result
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Status is the GET /jobs/{id} wire format.
type Status struct {
	ID        string     `json:"id"`
	State     State      `json:"state"`
	Spec      Spec       `json:"spec"`
	Error     string     `json:"error,omitempty"`
	Result    *Result    `json:"result,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// Status snapshots the job for the HTTP layer.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.ID, State: j.state, Spec: j.Spec, Error: j.err,
		Result: j.result, Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// State returns the job's current lifecycle position.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the job's result, nil unless completed.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// cancel requests cancellation: a queued job goes terminal
// immediately, a running one has its world aborted (the abort
// unwinds every rank promptly; the worker marks the job cancelled).
// Terminal jobs report an error. The returned state is the job's
// state after the request: StateCancelled means it is already
// terminal and the caller should account for it (a running job is
// accounted by the worker when its world unwinds).
func (j *Job) cancel() (State, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return j.state, fmt.Errorf("job %s already %s", j.ID, j.state)
	}
	j.cancelled = true
	if j.world != nil {
		j.world.Abort(msg.RankWatchdog, errCancelled)
	} else if j.state == StateQueued {
		j.state = StateCancelled
		j.err = errCancelled.Error()
		j.finished = time.Now()
	}
	return j.state, nil
}

// attachWorld publishes the running job's world for cancellation.
// Returns false when cancellation already won the race, in which case
// the worker must not run the world.
func (j *Job) attachWorld(w *msg.World) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelled {
		return false
	}
	j.world = w
	return true
}

// errCancelled is the abort cause of a user cancellation; the worker
// translates it into StateCancelled rather than StateFailed.
var errCancelled = fmt.Errorf("simserve: job cancelled by request")
