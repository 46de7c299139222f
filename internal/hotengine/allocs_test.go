package hotengine_test

import (
	"testing"

	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/hotengine"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
)

// sumWalk accepts every cell two levels below the root and sums the
// payloads it is handed.
type sumWalk struct {
	e   *hotengine.Engine[float64]
	sum float64
}

func (w *sumWalk) Begin(keys.Key, vec.V3) {}
func (w *sumWalk) Leaves(cells []*tree.Cell) {
	for _, c := range cells {
		w.sum += float64(c.N)
	}
}
func (w *sumWalk) Cells(_ []*tree.Cell, xs []float64) {
	for _, x := range xs {
		w.sum += x
	}
}

func (w *sumWalk) Sphere(*tree.Cell) (vec.V3, float64) { return vec.V3{}, 0 }

func (w *sumWalk) TestBound(c *tree.Cell, _ *tree.Bound) tree.Action {
	if c.Key.Level() >= 2 {
		return tree.Accept
	}
	return tree.Open
}

// TestWalkGroupsSteadyStateAllocs pins the steady-state allocation
// behaviour of the walk phase: the abm engine, the pending/stall maps
// and the deferral buffers are persistent per (engine, label), so a
// warm WalkGroups call on a settled tree must not allocate, with or
// without an eval.
func TestWalkGroupsSteadyStateAllocs(t *testing.T) {
	global := randomSystem(500, 4242)
	msg.Run(1, func(c *msg.Comm) {
		e := hotengine.New[float64](c, scatterTo(global, c), countPhysics{}, hotengine.Config{
			MAC:    grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.5},
			Bucket: 8,
		})
		e.Exchange()

		// A real traversal with a non-empty per-cell payload (the count
		// as a float64): every local cell it accepts hands the payload
		// to the visitor by value, which must not reach the heap.
		walk := &sumWalk{e: e}
		eval := func(gk keys.Key, g *tree.Cell, ctr *diag.Counters) {
			ctr.PP++
		}

		// Warm up: first call per label builds the persistent abm
		// engine and the scratch maps.
		e.WalkGroups("walk", walk, eval)
		if avg := testing.AllocsPerRun(20, func() {
			e.WalkGroups("walk", walk, eval)
		}); avg > 2 {
			t.Errorf("WalkGroups allocates %.1f/call in steady state, want <= 2", avg)
		}
	})
}
