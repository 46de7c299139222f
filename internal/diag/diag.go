// Package diag provides the internal diagnostics the paper's
// performance claims rest on: exact interaction counters (the flop
// rates "follow from the interaction counts and the elapsed
// wall-clock time"), per-phase timers, and load-balance statistics
// across processors.
package diag

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Counters tallies the work done by one processor during a force
// evaluation. The paper charges 38 flops per interaction (both
// body-body and body-cell count as one interaction at monopole order;
// quadrupole terms are charged separately).
type Counters struct {
	PP         uint64 // body-body interactions
	PC         uint64 // body-cell (multipole) interactions
	QuadPC     uint64 // of PC, how many included quadrupole terms
	CellsBuilt uint64 // tree cells constructed
	Traversals uint64 // tree-walk node visits of completed walks (non-flop work)
	VortexPP   uint64 // vortex body-body interactions
	SPHPairs   uint64 // SPH neighbor pairs evaluated
	// Push accounting (owner-side push of the locally essential cells):
	// Pushed counts the cells imported from a push, PushUsed the subset
	// a walk actually resolved. Pushed - PushUsed is what the
	// conservative test sent in vain.
	Pushed   uint64
	PushUsed uint64
}

// Paper flop-accounting constants.
const (
	FlopsPerInteraction     = 38  // gravitational monopole, Karp rsqrt
	FlopsPerQuadrupole      = 70  // additional cost of the quadrupole term
	FlopsPerVortexInteract  = 168 // regularized Biot-Savart + stretching
	FlopsPerSPHPair         = 55  // density + pressure force pair
	BytesPerInteractionRead = 32  // the paper's computational intensity figure
)

// What the production kernels (internal/grav kernel.go) execute per
// interaction the paper's accounting charges 38 (or 38+70) for, an FMA
// counting two, in float32. Every path -- a ZMM block of eight targets
// × two sources, a YMM block of four × two, or the Go loops -- executes
// the same arithmetic, reciprocal square root included, so these do not
// depend on the block. The float64 fold, eight adds per target every
// 128 sources, is not charged. Counted flops stay the
// paper's -- rates remain comparable with its tables -- and the
// roofline, a statement about this machine, uses these.
const (
	// ExecutedFlopsPerInteraction: 3 differences, 3 FMAs for r2, 13
	// for the reciprocal square root (-r2/2, then three Newton steps of
	// a multiply, an FMA and a multiply), 3 multiplies to m/r^3 and 4
	// FMAs to accumulate. The symmetric self sweep, scalar float64 on
	// the divider, does 15 per counted interaction, so a group's self
	// interactions are over-charged by the difference.
	ExecutedFlopsPerInteraction = 33
	// ExecutedFlopsPerQuadrupole: the extra operations of a
	// monopole+quadrupole interaction (67 in all): 2 more powers of
	// 1/r (r^-5, r^-7), Q.d in 3 multiplies and 6 FMAs, d.Q.d in a
	// multiply and 2 FMAs, (5/2)(d.Q.d)/r^7 into the radial factor and
	// (d.Q.d)/(2 r^5) into the potential by a multiply and an FMA each,
	// and Q.d/r^5 into the force by 3 FMAs.
	ExecutedFlopsPerQuadrupole = 34
)

// Bytes-moved accounting for the interaction kernels (internal/grav),
// the denominator of the roofline's arithmetic intensity. The kernels
// share each source row across the block of targets in a register --
// 8 with AVX-512 and 4 with AVX2, each target in two lanes that take
// the row's sources in pairs, 1 in the Go loops -- so the memory
// traffic charged per interaction is the row divided by the block's
// target count (grav.Lanes); target rows and accumulators stay in
// registers for a whole sweep, so they are not charged against DRAM
// bandwidth.
const (
	// BytesPerSourceRow: a body source row (x,y,z,m) or a monopole row
	// (cm,cx,cy,cz), four float32 columns.
	BytesPerSourceRow = 16
	// BytesPerQuadRow: the six 4-byte quadrupole columns, read on top
	// of the monopole row when quadrupole terms run.
	BytesPerQuadRow = 24
)

// KernelBytes returns the bytes moved through the interaction kernels
// under the accounting above when lanes targets share each row (a
// block's targets, not its register lanes): the roofline denominator
// paired with Flops as the numerator.
func (c *Counters) KernelBytes(lanes int) uint64 {
	return ((c.PP+c.PC)*BytesPerSourceRow + c.QuadPC*BytesPerQuadRow) / uint64(lanes)
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.PP += other.PP
	c.PC += other.PC
	c.QuadPC += other.QuadPC
	c.CellsBuilt += other.CellsBuilt
	c.Traversals += other.Traversals
	c.VortexPP += other.VortexPP
	c.SPHPairs += other.SPHPairs
	c.Pushed += other.Pushed
	c.PushUsed += other.PushUsed
}

// Sub returns the field-wise difference c - other: the per-step delta
// between two snapshots of an accumulating counter set.
func (c Counters) Sub(other Counters) Counters {
	return Counters{
		PP:         c.PP - other.PP,
		PC:         c.PC - other.PC,
		QuadPC:     c.QuadPC - other.QuadPC,
		CellsBuilt: c.CellsBuilt - other.CellsBuilt,
		Traversals: c.Traversals - other.Traversals,
		VortexPP:   c.VortexPP - other.VortexPP,
		SPHPairs:   c.SPHPairs - other.SPHPairs,
		Pushed:     c.Pushed - other.Pushed,
		PushUsed:   c.PushUsed - other.PushUsed,
	}
}

// PushHitRate is the useful share of the pushed cells, PushUsed /
// Pushed. Zero when nothing was pushed.
func (c *Counters) PushHitRate() float64 {
	if c.Pushed == 0 {
		return 0
	}
	return float64(c.PushUsed) / float64(c.Pushed)
}

// Interactions returns the paper's headline interaction count.
func (c *Counters) Interactions() uint64 { return c.PP + c.PC }

// Flops returns the floating point operation count under the paper's
// accounting: 38 per interaction, plus the quadrupole and
// application-kernel surcharges.
func (c *Counters) Flops() uint64 {
	return (c.PP+c.PC)*FlopsPerInteraction +
		c.QuadPC*FlopsPerQuadrupole +
		c.VortexPP*FlopsPerVortexInteract +
		c.SPHPairs*FlopsPerSPHPair
}

// ExecutedFlops returns the floating point operations the kernels
// actually executed for the work Flops charges at the paper's rates
// (vortex and SPH kernels execute what they are charged).
func (c *Counters) ExecutedFlops() uint64 {
	return c.ExecutedGravityFlops() +
		c.VortexPP*FlopsPerVortexInteract +
		c.SPHPairs*FlopsPerSPHPair
}

// ExecutedGravityFlops is ExecutedFlops' gravitational part.
func (c *Counters) ExecutedGravityFlops() uint64 {
	return (c.PP+c.PC)*ExecutedFlopsPerInteraction + c.QuadPC*ExecutedFlopsPerQuadrupole
}

// Timer accumulates wall-clock time per named phase.
//
// Concurrency contract: a Timer is single-owner. Exactly one
// goroutine -- the rank's engine loop -- may call Start/Stop; the
// engines uphold this by construction (each rank is one goroutine).
// Readers (Get, Phases, Banked) are the owner's too: what leaves the
// rank is the slice Banked returns, inside the rank's record. This
// keeps the hot phase transitions free of locks.
type Timer struct {
	phases map[string]time.Duration
	order  []string
	cur    string
	start  time.Time

	// Sink, when set, additionally receives every closed phase
	// interval (name, wall-clock start, duration) -- the hook the
	// trace layer uses to turn accumulated phase times into per-rank
	// timeline spans. Called by the owner goroutine from Stop.
	Sink func(phase string, start time.Time, d time.Duration)
}

// NewTimer returns an empty phase timer.
func NewTimer() *Timer {
	return &Timer{phases: make(map[string]time.Duration)}
}

// Start begins (or resumes) a phase, ending any current one: the
// previous phase's elapsed time is banked (and reported to Sink)
// before the new phase's clock starts.
func (t *Timer) Start(phase string) {
	t.Stop()
	t.cur = phase
	t.start = time.Now()
}

// Stop ends the current phase.
func (t *Timer) Stop() {
	if t.cur == "" {
		return
	}
	if _, ok := t.phases[t.cur]; !ok {
		t.order = append(t.order, t.cur)
	}
	d := time.Since(t.start)
	t.phases[t.cur] += d
	if t.Sink != nil {
		t.Sink(t.cur, t.start, d)
	}
	t.cur = ""
}

// Get returns the accumulated time of a phase.
func (t *Timer) Get(phase string) time.Duration { return t.phases[phase] }

// Phases returns the phase names in first-start order.
func (t *Timer) Phases() []string {
	return append([]string(nil), t.order...)
}

// Phase is one phase's banked time.
type Phase struct {
	Name string
	D    time.Duration
}

// Banked returns every phase's banked time in first-start order as a
// fresh slice (the open phase, if any, is not included until its Stop).
// Like Start/Stop it may only be called by the owning goroutine; an
// engine calls it from the rank's own step loop and hands the slice
// across in its rank record, which is what makes mid-run phase
// reporting safe without adding locks here.
func (t *Timer) Banked() []Phase {
	out := make([]Phase, len(t.order))
	for i, p := range t.order {
		out[i] = Phase{p, t.phases[p]}
	}
	return out
}

// SnapshotSeconds returns the banked per-phase seconds as a fresh map,
// under Banked's contract (the benchmark's ruler reads it per step).
func (t *Timer) SnapshotSeconds() map[string]float64 {
	out := make(map[string]float64, len(t.phases))
	for p, d := range t.phases {
		out[p] = d.Seconds()
	}
	return out
}

// Balance summarizes a per-processor quantity: the load-balance
// statistics the paper cites as the hard part of clustered N-body
// work.
type Balance struct {
	Min, Max, Mean, Median float64
	// Efficiency is Mean/Max: the fraction of ideal speedup retained
	// under this imbalance.
	Efficiency float64
}

// BalanceOf computes balance statistics over per-rank values.
func BalanceOf(vals []float64) Balance {
	if len(vals) == 0 {
		return Balance{}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	med := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		// Even count: the midpoint average, not the upper-middle
		// element.
		med = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	b := Balance{
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   sum / float64(len(sorted)),
		Median: med,
	}
	if b.Max > 0 {
		b.Efficiency = b.Mean / b.Max
	}
	return b
}

// Stacks returns the stack traces of every live goroutine -- the raw
// material of a hang diagnosis. The msg stall watchdog appends this to
// its per-rank state table so a stuck collective shows exactly which
// receive each rank is parked in.
func Stacks() []byte {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// Rate formats ops/seconds as a human-readable flops rate, matching
// the paper's Mflops/Gflops conventions.
func Rate(flops uint64, seconds float64) string {
	if seconds <= 0 {
		return "inf"
	}
	r := float64(flops) / seconds
	switch {
	case r >= 1e12:
		return fmt.Sprintf("%.2f Tflops", r/1e12)
	case r >= 1e9:
		return fmt.Sprintf("%.2f Gflops", r/1e9)
	case r >= 1e6:
		return fmt.Sprintf("%.2f Mflops", r/1e6)
	default:
		return fmt.Sprintf("%.0f flops", r)
	}
}
