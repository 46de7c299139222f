//go:build !race

package tree

import (
	"testing"

	"repro/internal/grav"
)

// The issue's guardrail: a persistent ForcePool must reach a
// zero-allocation steady state -- walkers, interaction lists and SoA
// blocks are all pooled per worker, and the wake/done signalling uses
// pre-allocated channels. (Skipped under -race: the detector's
// instrumentation charges shadow allocations to the test.)
func TestForcePoolSteadyStateAllocatesNothing(t *testing.T) {
	sys, d := cloud(5000, 23)
	tr := Build(sys, d, grav.DefaultMAC(), 16)
	p := NewForcePool(4)
	defer p.Close()
	p.Gravity(tr, 1e-6) // warm-up: buffers reach their high-water mark
	allocs := testing.AllocsPerRun(5, func() { p.Gravity(tr, 1e-6) })
	if allocs != 0 {
		t.Fatalf("steady-state pool evaluation allocates %v times per call", allocs)
	}
}

// equalize levels the fleet in one pass and a levelled fleet stays
// levelled. It did not while Descent.Grow grew by append: the overshoot
// of one evaluation's levelling was the next one's maximum, every
// Gravity call reallocated the other workers' batches, and the test
// above failed whenever the first evaluation left the workers unequal
// (about one run in a hundred).
func TestForcePoolEqualizeIsAFixedPoint(t *testing.T) {
	p := NewForcePool(3)
	defer p.Close()
	// High-water marks as a first evaluation's nondeterministic group
	// assignment leaves them: different on every worker.
	p.walkers[0].d.Grow(7, 1023)
	p.walkers[1].d.Grow(33, 1535)
	p.walkers[1].List.Grow(2500, 37)
	p.walkers[2].List.Grow(100, 1200)
	p.walkers[2].tg.Grow(19)
	p.equalize()
	for i, w := range p.walkers {
		nb, nc := w.List.Caps()
		stack, batch := w.d.Caps()
		if nb != 2500 || nc != 1200 || w.tg.Cap() != 19 || stack != 33 || batch != 1535 {
			t.Fatalf("worker %d after equalize: list %d/%d targets %d descent %d/%d, want 2500/1200 19 33/1535",
				i, nb, nc, w.tg.Cap(), stack, batch)
		}
	}
	if allocs := testing.AllocsPerRun(10, p.equalize); allocs != 0 {
		t.Fatalf("equalize on a levelled fleet allocates %v times", allocs)
	}
}
