// Package runner is how a distributed run is assembled and driven,
// written once: a msg world with its injector, watchdog and trace, the
// contiguous-slab scatter of a global system, one engine per rank with
// its instrumentation, the first evaluation, the timed step loop that
// feeds a live sampler, and the gather. The four drivers, the service
// (internal/simserve), hot.RunParallel, internal/experiments and the
// examples each describe their run as a Plan and call Run; none of them
// constructs an engine or a world for a treecode run (scripts/check.sh
// fails on a constructor call outside this package). A serial gravity
// run (hot.Serial, bem's tree sums) is Gravity.Serial: the same engine
// as the only rank of a one-rank world.
//
// A Plan is what is computed: ranks, steps, the bodies and the physics.
// Attachments are who is watching; all optional, and a run with none
// pays for none. Generating the bodies stays with the caller -- a
// driver reads flags, the service a Spec -- so the runner never has to
// know a scenario by name.
package runner

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tree"
)

// Plan describes one distributed run.
type Plan struct {
	// NP is the rank count of the world, Steps the timesteps after the
	// first evaluation (0 = forces only), DT the timestep.
	NP    int
	Steps int
	DT    float64
	// System is the global initial state. Rank r starts from a copy of
	// the contiguous slab [r*n/NP, (r+1)*n/NP); the first decomposition
	// moves every body to its owner.
	System *core.System
	// Physics builds each rank's engine: Gravity, SPH or Vortex.
	Physics Physics
	// OnStep, when non-nil, runs on every rank's goroutine before the
	// first step (step -1, with the first evaluation's counters) and
	// after each step s in [0, Steps) with that step's counters. Every
	// rank calls it at the same points, so it may run collectives
	// (parallel.Engine.Energy); e is the rank's concrete engine. A
	// panic inside it fails the run like any rank failure.
	OnStep func(rank, step int, e Engine, ctr diag.Counters)
}

// Attachments are the optional observers of a run.
type Attachments struct {
	// Trace records per-rank timelines (messages, phases, stalls).
	Trace *trace.Run
	// Sampler receives one sample per rank per evaluation. The caller
	// owns it: Run never closes it.
	Sampler *telemetry.Sampler
	// Injector is the deterministic fault injector of chaos runs.
	Injector *msg.Injector
	// Watchdog aborts a world that makes no progress for Quiet (0 =
	// no watchdog).
	Watchdog msg.WatchdogConfig
	// OnWorld is handed the world before anything runs in it, so the
	// caller can abort it from outside (the service's cancellation). A
	// non-nil error is returned by Run and nothing runs.
	OnWorld func(*msg.World) error
}

// Result is what a completed run leaves behind.
type Result struct {
	// Systems are the ranks' final local bodies, rank-major.
	Systems []*core.System
	// Counters is the work of the whole run, summed over ranks.
	Counters diag.Counters
	// Ranks are the ranks' records as of their return: what
	// metrics.BuildReport and the drivers' epilogues read.
	Ranks []metrics.RankInput
	// World holds the traffic records of the run.
	World *msg.World
	// Wall is the host wall clock of the world, engine construction to
	// the last rank's return.
	Wall time.Duration
}

// Run executes the plan and returns its result, or the *msg.WorldError
// of the first rank failure (a panic, an injected crash, a watchdog
// stall, an outside abort): every rank has unwound by then and nothing
// of the world is left running. It never panics on a rank failure.
func Run(p Plan, at Attachments) (*Result, error) {
	w := msg.NewWorld(p.NP)
	w.SetTrace(at.Trace)
	w.SetInjector(at.Injector)
	if at.OnWorld != nil {
		if err := at.OnWorld(w); err != nil {
			return nil, err
		}
	}
	if at.Watchdog.Quiet > 0 {
		w.StartWatchdog(at.Watchdog)
	}
	res := &Result{
		Systems: make([]*core.System, p.NP),
		Ranks:   make([]metrics.RankInput, p.NP),
		World:   w,
	}
	start := time.Now()
	werr := w.RunErr(func(c *msg.Comm) {
		r := c.Rank()
		e := p.Physics.build(c, slab(p.System, r, p.NP))
		e.Observe(at.Trace.Rank(r))
		// record is the rank's record with the two things only the step
		// loop knows: the wall clock and collectives of the last step.
		var stepNs int64
		collectives := 0
		record := func() metrics.RankInput {
			in := e.Record()
			in.StepNs, in.Collectives = stepNs, collectives
			return in
		}
		// evaluated times one evaluation or step and counts its
		// collectives, samples it, and runs the hook.
		evaluated := func(step int, eval func() diag.Counters) {
			t0, c0 := time.Now(), c.Collectives()
			ctr := eval()
			stepNs, collectives = time.Since(t0).Nanoseconds(), int(c.Collectives()-c0)
			if at.Sampler != nil {
				at.Sampler.Contribute(r, record())
			}
			if p.OnStep != nil {
				p.OnStep(r, step, e.Engine, ctr)
			}
		}
		if e.first != nil {
			// The first evaluation is sample 1: energies are current
			// here, which gives a drift monitor its baseline.
			evaluated(-1, e.first)
		} else if p.OnStep != nil {
			p.OnStep(r, -1, e.Engine, diag.Counters{})
		}
		for s := 0; s < p.Steps; s++ {
			evaluated(s, func() diag.Counters { return e.Step(p.DT) })
		}
		res.Systems[r] = *e.sys
		res.Ranks[r] = record()
	})
	res.Wall = time.Since(start)
	if werr != nil {
		return nil, werr
	}
	for _, in := range res.Ranks {
		res.Counters.Add(in.Counters)
	}
	return res, nil
}

// slab copies rank's contiguous share of the global system.
func slab(global *core.System, rank, size int) *core.System {
	n := global.Len()
	local := core.New(0)
	local.AppendRange(global, rank*n/size, (rank+1)*n/size)
	return local
}

// Bodies is the final body count across ranks.
func (r *Result) Bodies() int {
	n := 0
	for _, s := range r.Systems {
		n += s.Len()
	}
	return n
}

// Merged concatenates the ranks' final bodies, rank-major, with every
// column the engines carried.
func (r *Result) Merged() *core.System {
	out := core.New(0)
	for _, s := range r.Systems {
		out.AppendRange(s, 0, s.Len())
	}
	return out
}

// PerBodyWalk samples every 64th of a gravity run's final bodies in key
// order: what the original per-body walk charges them on one tree built
// as g builds its own (tree.PerBodyWalk), and what the grouped walk
// that ran did (their work weights). A driver's epilogue: it merges and
// sorts the bodies, so no step calls it.
func (r *Result) PerBodyWalk(g Gravity) (perBody, grouped uint64, sampled int) {
	sys := r.Merged()
	d := keys.NewDomain(sys.Pos)
	sys.AssignKeys(d)
	sys.SortByKey()
	var work float64
	for i := 0; i < sys.Len(); i += 64 {
		work += sys.Work[i]
	}
	perBody, sampled = tree.Build(sys, d, g.MAC, g.Bucket).PerBodyWalk(64)
	return perBody, uint64(work), sampled
}

// ForcesHash digests final per-body state in rank-major, local body
// order: ID plus the acceleration columns (positions for the vortex
// method, whose Step folds the induced velocity straight into Pos).
// Bit-for-bit deterministic for a given plan, so equal digests ARE
// bitwise equal forces.
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
	return fmt.Sprintf("%016x", h.Sum64())
}
