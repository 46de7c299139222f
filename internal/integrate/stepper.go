package integrate

import (
	"math"
	"math/bits"

	"repro/internal/core"
)

// Bodies is the stepper's view of one rank's particle system: the
// kick and drift loops live here in the integrate core, so an
// implementation supplies only what differs per engine -- how forces
// are computed and how rungs synchronize across ranks. The serial
// tree driver, the distributed gravity engine and the distributed SPH
// engine all adapt to it.
type Bodies interface {
	// Sys returns the current local system. Forces may replace it
	// (the distributed engines redistribute bodies), so the stepper
	// re-fetches it after every evaluation.
	Sys() *core.System
	// Forces computes accelerations (and potentials) for every body
	// whose Rung is at least minRung. minRung <= 0 requests a full
	// synchronization evaluation: every body, fresh decomposition.
	// minRung > 0 is a partial evaluation: only the listed rungs need
	// new accelerations, though the decomposition is a full one's (its
	// bodies drifted, so their splits are searched again). Either way
	// the evaluation is collective -- every rank calls Forces at every
	// sub-step, even with an empty local active set.
	Forces(minRung int)
	// MaxRung folds a proposed local maximum rung into the global
	// maximum (an allreduce in the distributed engines, the identity
	// serially), so every rank runs the same sub-step schedule.
	MaxRung(local int) int
}

// Scheme selects the time-stepping mode.
type Scheme int

const (
	// Uniform advances every body with the same step: one force
	// evaluation per step, the classic kick-drift-kick leapfrog. This
	// is the one-rung degenerate case of the block scheduler, kept as
	// its own code path so the operation sequence is bitwise the
	// historical one.
	Uniform Scheme = iota
	// Block assigns each body a power-of-two sub-step of the global
	// step from the acceleration criterion dt_i = Eta*sqrt(Eps/|a_i|)
	// and evaluates forces only for the bodies whose sub-step ends at
	// each sub-step boundary (Valdarnini 2002's hierarchical block
	// timesteps): clustered systems concentrate activity in a tiny
	// core, so most evaluations touch a small active set.
	Block
)

// DefaultMaxRung caps the rung hierarchy at 2^6 = 64 sub-steps per
// global step.
const DefaultMaxRung = 6

// Stats accumulates what the scheduler did, the numerator and
// denominator of the active-fraction accounting in RunReport.
type Stats struct {
	// BigSteps counts Step calls; SubSteps the sub-step force
	// evaluations inside them (equal for Uniform).
	BigSteps uint64
	SubSteps uint64
	// FullEvals are synchronization evaluations (every body);
	// PartialEvals evaluated an active subset.
	FullEvals    uint64
	PartialEvals uint64
	// ActiveSinks counts the bodies the scheduler marked active across
	// all evaluations; TotalSinks counts every body at every
	// evaluation. ActiveSinks/TotalSinks is the active fraction; its
	// inverse is the force-evaluation saving over uniform stepping at
	// the finest occupied rung.
	ActiveSinks uint64
	TotalSinks  uint64
	// Occupancy[r] accumulates how many bodies were assigned rung r at
	// the synchronization points (uniform stepping charges everything
	// to rung 0).
	Occupancy []uint64
}

// occupy grows the occupancy histogram to hold rung r and bumps it.
func (st *Stats) occupy(r, n int) {
	for len(st.Occupancy) <= r {
		st.Occupancy = append(st.Occupancy, 0)
	}
	st.Occupancy[r] += uint64(n)
}

// Stepper advances a Bodies through global steps of size dt with
// either uniform or hierarchical block timesteps.
//
// Invariant (entry and exit of Step): every body's Acc is current for
// its position -- evaluate forces once before the first Step -- and
// all bodies are synchronized at the same time. Block sub-steps
// desynchronize bodies inside a Step; the final sub-step is always a
// full synchronization evaluation, which restores the invariant and
// is where energies and snapshots are meaningful.
type Stepper struct {
	B      Bodies
	Scheme Scheme
	// Eta scales the acceleration criterion dt_i = Eta*sqrt(Eps/|a_i|)
	// (Block only). Typical 0.01-0.05 for unit-scale problems.
	Eta float64
	// Eps is the softening length in the criterion (Block only).
	Eps float64
	// MaxRung caps the hierarchy depth; 0 means DefaultMaxRung.
	MaxRung int
	// Stats accumulates scheduler accounting across Steps.
	Stats Stats
}

// Step advances one global step of size dt. See the Stepper invariant
// for the entry/exit contract.
func (st *Stepper) Step(dt float64) {
	st.Stats.BigSteps++
	if st.Scheme == Uniform {
		// The historical kick-drift-kick sequence, bit for bit.
		sys := st.B.Sys()
		n := sys.Len()
		Kick(sys, dt/2)
		Drift(sys, dt)
		st.Stats.SubSteps++
		st.Stats.FullEvals++
		st.Stats.ActiveSinks += uint64(n)
		st.Stats.TotalSinks += uint64(n)
		st.Stats.occupy(0, n)
		st.B.Forces(0)
		Kick(st.B.Sys(), dt/2)
		return
	}

	sys := st.B.Sys()
	r := st.B.MaxRung(st.assignRungs(sys, dt))
	nsub := 1 << uint(r)
	h := dt / float64(nsub)

	// Opening half-kicks: every body starts a sub-step here, each by
	// half of its own step dt/2^rung.
	KickRungs(sys, 0, dt)
	for s := 1; s <= nsub; s++ {
		// Prediction: every body drifts at the finest granularity, so
		// inactive bodies are exact sources (positions are first-order
		// in the KDK split regardless of rung).
		Drift(sys, h)
		minRung := r - bits.TrailingZeros(uint(s))
		st.Stats.SubSteps++
		if minRung <= 0 {
			st.Stats.FullEvals++
		} else {
			st.Stats.PartialEvals++
		}
		st.Stats.ActiveSinks += countActive(sys, minRung)
		st.Stats.TotalSinks += uint64(sys.Len())
		st.B.Forces(minRung)
		sys = st.B.Sys()
		// Closing half-kicks for the bodies whose step just ended;
		// when the global step continues they immediately open their
		// next one.
		KickRungs(sys, minRung, dt)
		if s < nsub {
			KickRungs(sys, minRung, dt)
		}
	}
}

// assignRungs chooses each body's rung from the acceleration
// criterion and returns the local maximum. Rungs are recomputed at
// every synchronization point (Step entry), where every body's Acc is
// current.
func (st *Stepper) assignRungs(sys *core.System, dt float64) int {
	sys.EnableRungs()
	maxRung := st.MaxRung
	if maxRung <= 0 {
		maxRung = DefaultMaxRung
	}
	eta, eps := st.Eta, st.Eps
	localMax := 0
	for i := range sys.Rung {
		r := 0
		if eta > 0 && eps > 0 {
			if a := sys.Acc[i].Norm(); a > 0 {
				dti := eta * math.Sqrt(eps/a)
				for step := dt; step > dti && r < maxRung; r++ {
					step *= 0.5
				}
			}
		}
		sys.Rung[i] = uint8(r)
		st.Stats.occupy(r, 1)
		if r > localMax {
			localMax = r
		}
	}
	return localMax
}

// CountRungs tallies the system's current rung occupancy into out
// (rungs past len(out) are clamped into the last bin). Unlike
// Stats.Occupancy, which accumulates over the whole run, this is the
// instantaneous distribution -- what the live telemetry sampler
// reports per step. A nil Rung column is all rung zero.
func CountRungs(sys *core.System, out []uint64) {
	if len(out) == 0 {
		return
	}
	if sys.Rung == nil {
		out[0] += uint64(sys.Len())
		return
	}
	for _, r := range sys.Rung {
		i := int(r)
		if i >= len(out) {
			i = len(out) - 1
		}
		out[i]++
	}
}

// countActive returns how many bodies are active at minRung.
func countActive(sys *core.System, minRung int) uint64 {
	if minRung <= 0 || sys.Rung == nil {
		return uint64(sys.Len())
	}
	var n uint64
	for _, r := range sys.Rung {
		if int(r) >= minRung {
			n++
		}
	}
	return n
}

// KickRungs applies the half-kick of each active body's own sub-step:
// bodies with Rung >= minRung advance their velocity by
// Acc * dt/2^(Rung+1). A nil Rung column means every body is on rung
// zero (half-kick dt/2), which makes the one-rung case bitwise
// identical to Kick(sys, dt/2).
func KickRungs(sys *core.System, minRung int, dt float64) {
	if sys.Rung == nil {
		Kick(sys, dt/2)
		return
	}
	for i := range sys.Vel {
		r := int(sys.Rung[i])
		if r < minRung {
			continue
		}
		h := dt / float64(uint64(2)<<uint(r))
		sys.Vel[i] = sys.Vel[i].Add(sys.Acc[i].Scale(h))
	}
}

// FuncBodies adapts a *core.System plus a force callback to the
// Bodies interface for test references: the system is never replaced
// and rungs need no synchronization.
type FuncBodies struct {
	System *core.System
	// Force computes accelerations for bodies with Rung >= minRung
	// (minRung <= 0: all). Serial uniform drivers may ignore minRung.
	Force func(sys *core.System, minRung int)
}

func (b *FuncBodies) Sys() *core.System     { return b.System }
func (b *FuncBodies) Forces(minRung int)    { b.Force(b.System, minRung) }
func (b *FuncBodies) MaxRung(local int) int { return local }
