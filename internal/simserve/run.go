// Job execution: one accepted Spec becomes one runner.Plan, and the job
// runs through runner.Run -- the same function the standalone drivers
// call, so there is no second rank body to keep in step. That is the
// service's correctness contract: a job's final forces are
// bit-identical to what treebench/sphsim/vortexsim compute for the same
// (spec, np, seed), and TestGravityJobBitwiseStandalone holds the
// runner to a rank body written out by hand.

package simserve

import (
	"time"

	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/runner"
)

// vortexCore is the fixed points-across-core of vortex-ring jobs
// (the driver's -ncore default).
const vortexCore = runner.RingCore

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

// execute runs the job's plan in a world of its own. The returned
// error is the structured world abort (or cancellation); a nil error
// means every rank completed and res holds the digest.
func (m *Manager) execute(j *Job) (*Result, error) {
	run, err := runner.Run(j.Spec.plan(), runner.Attachments{
		Registry: j.reg, Sampler: j.tel, Injector: j.inj,
		// A negative configured quiet period disables the watchdog.
		Watchdog: msg.WatchdogConfig{Quiet: max(m.cfg.Watchdog, 0), Log: m.lg.With("job", j.ID)},
		OnWorld: func(w *msg.World) error {
			if !j.attachWorld(w) {
				return errCancelled
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	// The headline count adds the SPH pair and vortex kernels to the
	// gravity interactions; each physics only counts its own.
	c := run.Counters
	return &Result{
		Bodies:       run.Bodies(),
		Interactions: c.Interactions() + c.SPHPairs + c.VortexPP,
		Flops:        c.Flops(),
		ForcesHash:   runner.ForcesHash(run.Systems, j.Spec.Physics == PhysicsVortex),
		WallMs:       float64(run.Wall.Nanoseconds()) / 1e6,
	}, nil
}

// plan turns a defaulted, validated spec into the run it asks for:
// the bodies of Spec.IC and the physics of the standalone driver of
// the same name, at that driver's defaults.
func (sp Spec) plan() runner.Plan {
	p := runner.Plan{NP: sp.NP, Steps: sp.Steps, DT: sp.DT}
	switch sp.Physics {
	case PhysicsSPH:
		p.System, p.Physics = ic.GasSphere(sp.N, sp.Seed), runner.GasSphere(runner.GasCS)
	case PhysicsVortex:
		p.System = ic.RingPair(runner.RingSigma, sp.N, vortexCore)
		p.Physics = runner.Vortex{Sigma: runner.RingSigma, Theta: runner.RingTheta}
	default:
		if sp.IC == ICSphere {
			p.System = ic.UniformSphere(sp.N, 1.0, sp.Seed)
		} else {
			p.System = ic.Plummer(sp.N, 1.0, sp.Seed)
		}
		g := runner.Gravity{
			MAC:    grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: sp.Tol, Quad: true},
			Bucket: 16, Eps2: 1e-6,
		}
		if sp.DTMode == "block" {
			g.Eta = sp.Eta
		}
		p.Physics = g
	}
	return p
}
