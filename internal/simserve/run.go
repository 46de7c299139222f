// Job execution: one accepted Spec becomes one msg.World whose rank
// bodies mirror the standalone drivers step for step -- same ICs,
// same slab scatter, same engine configuration, same evaluation
// sequence. That mirroring is the service's correctness contract: a
// job's final forces are bit-identical to what treebench/sphsim/
// vortexsim compute for the same (spec, np, seed), pinned by
// TestGravityJobBitwiseStandalone.

package simserve

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/msg"
	"repro/internal/parallel"
	"repro/internal/sph"
	"repro/internal/vec"
	"repro/internal/vortex"
)

// vortexCore is the fixed points-across-core of vortex-ring jobs
// (the driver's -ncore default).
const vortexCore = 4

// runJob moves a dequeued job through running to a terminal state.
// Every failure mode of the world -- rank panic, injected crash,
// watchdog stall, cancellation -- lands here as a *msg.WorldError;
// nothing escapes to the worker goroutine.
func (m *Manager) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	m.reg.Gauge(MetricRunning).Set(float64(m.running.Add(1)))
	m.lg.Info("job started", "job", j.ID, "physics", j.Spec.Physics,
		"n", j.Spec.N, "np", j.Spec.NP, "steps", j.Spec.Steps)

	res, err := m.execute(j)

	j.mu.Lock()
	j.world = nil
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateCompleted
		j.result = res
	case j.cancelled:
		j.state = StateCancelled
		j.err = errCancelled.Error()
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	state, lat, runNs := j.state, j.finished.Sub(j.submitted), j.finished.Sub(j.started)
	j.mu.Unlock()

	j.tel.Close()
	m.reg.Gauge(MetricRunning).Set(float64(m.running.Add(-1)))
	m.reg.Histogram(MetricLatencyNs).Observe(uint64(lat.Nanoseconds()))
	m.reg.Histogram(MetricRunNs).Observe(uint64(runNs.Nanoseconds()))
	switch state {
	case StateCompleted:
		m.reg.Counter(MetricCompleted).Add(1)
		m.lg.Info("job completed", "job", j.ID, "wall_ms", runNs.Milliseconds(), "hash", res.ForcesHash)
	case StateCancelled:
		m.reg.Counter(MetricCancelled).Add(1)
		m.lg.Info("job cancelled", "job", j.ID)
	default:
		m.reg.Counter(MetricFailed).Add(1)
		m.lg.Error("job failed (contained)", "job", j.ID, "err", err)
	}
	m.retire(j.ID)
}

// execute builds the job's world and runs its physics. The returned
// error is the structured world abort (or cancellation); a nil error
// means every rank completed and res holds the digest.
func (m *Manager) execute(j *Job) (*Result, error) {
	sp := j.Spec
	w := msg.NewWorld(sp.NP)
	if j.inj != nil {
		w.SetInjector(j.inj)
	}
	if m.cfg.Watchdog > 0 {
		w.StartWatchdog(msg.WatchdogConfig{Quiet: m.cfg.Watchdog, Log: m.lg.With("job", j.ID)})
	}
	if !j.attachWorld(w) {
		return nil, errCancelled
	}

	systems := make([]*core.System, sp.NP)
	var werr *msg.WorldError
	var interactions, flops uint64
	t0 := time.Now()
	switch sp.Physics {
	case PhysicsGravity:
		engines := make([]*parallel.Engine, sp.NP)
		werr = w.RunErr(gravityRank(j, engines))
		if werr == nil {
			for r, e := range engines {
				systems[r] = e.Sys
				interactions += e.Counters.Interactions()
				flops += e.Counters.Flops()
			}
		}
	case PhysicsSPH: // headline count includes the SPH pair kernel
		engines := make([]*sph.ParallelEngine, sp.NP)
		werr = w.RunErr(sphRank(j, engines))
		if werr == nil {
			for r, e := range engines {
				systems[r] = e.Sys
				interactions += e.Counters.Interactions() + e.Counters.SPHPairs
				flops += e.Counters.Flops()
			}
		}
	case PhysicsVortex: // vortex work is all in the VortexPP kernel
		engines := make([]*vortex.ParallelEngine, sp.NP)
		werr = w.RunErr(vortexRank(j, engines))
		if werr == nil {
			for r, e := range engines {
				systems[r] = e.Sys
				interactions += e.Counters.VortexPP
				flops += e.Counters.Flops()
			}
		}
	}
	if werr != nil {
		return nil, werr
	}
	res := &Result{
		Interactions: interactions,
		Flops:        flops,
		ForcesHash:   ForcesHash(systems, sp.Physics == PhysicsVortex),
		WallMs:       float64(time.Since(t0).Nanoseconds()) / 1e6,
	}
	for _, s := range systems {
		res.Bodies += s.Len()
	}
	return res, nil
}

// scatter builds rank r's contiguous slab of the global system --
// the same lo:hi split every driver uses.
func scatter(global *core.System, local *core.System, rank, size int) {
	n := global.Len()
	lo, hi := rank*n/size, (rank+1)*n/size
	for i := lo; i < hi; i++ {
		local.AppendFrom(global, i)
	}
}

// gravityRank is the per-rank body of a gravity job, mirroring
// cmd/treebench: Plummer (or cold-sphere) ICs, Salmon-Warren MAC with
// quadrupoles, one initial force evaluation then Steps KDK steps.
func gravityRank(j *Job, engines []*parallel.Engine) func(*msg.Comm) {
	sp := j.Spec
	var global *core.System
	switch sp.IC {
	case ICSphere:
		global = ic.UniformSphere(sp.N, 1.0, sp.Seed)
	default:
		global = ic.Plummer(sp.N, 1.0, sp.Seed)
	}
	return func(c *msg.Comm) {
		local := core.New(0)
		local.EnableDynamics()
		scatter(global, local, c.Rank(), c.Size())
		e := parallel.New(c, local, parallel.Config{
			MAC:    grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: sp.Tol, Quad: true},
			Bucket: 16, Eps2: 1e-6,
		})
		if sp.DTMode == "block" {
			e.Stepper.Scheme = integrate.Block
			e.Stepper.Eta = sp.Eta
			e.Stepper.Eps = math.Sqrt(1e-6)
		}
		t0 := time.Now()
		e.ComputeForces()
		// The initial evaluation is sample 1: energies are current
		// here, giving the job's drift monitor its E0 baseline.
		j.tel.Contribute(c.Rank(), e.Telemetry(time.Since(t0).Nanoseconds()))
		for s := 0; s < sp.Steps; s++ {
			t0 = time.Now()
			e.Step(sp.DT)
			j.tel.Contribute(c.Rank(), e.Telemetry(time.Since(t0).Nanoseconds()))
		}
		engines[c.Rank()] = e
	}
}

// sphRank mirrors cmd/sphsim's distributed gas run: a cold uniform
// gas sphere under isothermal pressure plus self-gravity.
func sphRank(j *Job, engines []*sph.ParallelEngine) func(*msg.Comm) {
	sp := j.Spec
	global := ic.UniformSphere(sp.N, 1.0, sp.Seed)
	global.EnableSPH()
	for i := range global.H {
		global.H[i] = 0.1
	}
	return func(c *msg.Comm) {
		local := core.New(0)
		local.EnableDynamics()
		local.EnableSPH()
		scatter(global, local, c.Rank(), c.Size())
		e := sph.NewParallel(c, local, sph.ParallelConfig{
			Params:  sph.Params{EOS: sph.Isothermal, CS: 0.8, AlphaVisc: 1, BetaVisc: 2},
			Gravity: true, Eps2: 1e-4,
		})
		t0 := time.Now()
		e.Eval()
		j.tel.Contribute(c.Rank(), e.Telemetry(time.Since(t0).Nanoseconds()))
		for s := 0; s < sp.Steps; s++ {
			t0 = time.Now()
			e.Step(sp.DT)
			j.tel.Contribute(c.Rank(), e.Telemetry(time.Since(t0).Nanoseconds()))
		}
		engines[c.Rank()] = e
	}
}

// vortexRank mirrors cmd/vortexsim's distributed run: two offset
// vortex rings (N points around, vortexCore across) advected with
// the vortex particle method.
func vortexRank(j *Job, engines []*vortex.ParallelEngine) func(*msg.Comm) {
	sp := j.Spec
	const sigma, theta = 0.12, 0.5
	global := core.New(0)
	global.EnableDynamics()
	global.EnableVortex()
	ic.VortexRing(global, 1.0, 1.0, sigma, vec.V3{X: -0.75}, vec.V3{Z: 1}, sp.N, vortexCore, 41)
	ic.VortexRing(global, 1.0, 1.0, sigma, vec.V3{X: 0.75}, vec.V3{Z: 1}, sp.N, vortexCore, 43)
	return func(c *msg.Comm) {
		local := core.New(0)
		local.EnableDynamics()
		local.EnableVortex()
		scatter(global, local, c.Rank(), c.Size())
		e := vortex.NewParallel(c, local, sigma, theta)
		for s := 0; s < sp.Steps; s++ {
			t0 := time.Now()
			e.Step(sp.DT)
			j.tel.Contribute(c.Rank(), e.Telemetry(time.Since(t0).Nanoseconds()))
		}
		engines[c.Rank()] = e
	}
}

// ForcesHash digests the final per-body state in rank-major, local
// body order: ID plus the acceleration columns (positions for the
// vortex method, whose Step folds the induced velocity straight into
// Pos). Bit-for-bit deterministic for a given (spec, np, seed), so
// equality with a standalone-driver run IS bitwise force equality.
func ForcesHash(systems []*core.System, positions bool) string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, s := range systems {
		for i := 0; i < s.Len(); i++ {
			word(uint64(s.ID[i]))
			v := s.Acc[i]
			if positions {
				v = s.Pos[i]
			}
			word(math.Float64bits(v.X))
			word(math.Float64bits(v.Y))
			word(math.Float64bits(v.Z))
		}
	}
	return string(appendHex(nil, h.Sum64()))
}

// appendHex is %016x without fmt on the hash path.
func appendHex(dst []byte, u uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, digits[(u>>uint(shift))&0xf])
	}
	return dst
}
