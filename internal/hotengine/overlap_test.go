package hotengine_test

import (
	"testing"

	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/hotengine"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
)

// sumWalk accepts every cell two levels below the root and sums the
// payloads it is handed.
type sumWalk struct {
	e   *hotengine.Engine[float64, []int64]
	sum float64
}

func (w *sumWalk) Begin(int, keys.Key, *tree.Cell) {}
func (w *sumWalk) Cell(_ *tree.Cell, x float64)    { w.sum += x }
func (w *sumWalk) Leaf(c *tree.Cell)               { w.sum += float64(c.N) }

func (w *sumWalk) Test(c *tree.Cell) tree.Action {
	if c.Key.Level() >= 2 {
		return tree.Accept
	}
	return tree.Open
}

// TestWalkGroupsSteadyStateAllocs pins the steady-state allocation
// behaviour of the walk phase: the abm engine, the pending/stall maps
// and the deferral buffers are persistent per (engine, label), so a
// warm WalkGroups call on a settled tree must not allocate on the
// rank goroutine's hot path -- neither inline nor with the eval pool
// attached.
func TestWalkGroupsSteadyStateAllocs(t *testing.T) {
	global := randomSystem(500, 4242)
	msg.Run(1, func(c *msg.Comm) {
		phys := &countPhysics{}
		var e *hotengine.Engine[float64, []int64]
		phys.e = func() *hotengine.Engine[float64, []int64] { return e }
		e = hotengine.New[float64, []int64](c, scatterTo(global, c), phys, hotengine.Config{
			MAC:    grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.5},
			Bucket: 8,
		})
		defer e.Close()
		e.Exchange()

		// A real traversal with a non-empty per-cell payload (the count
		// as a float64): every local cell it accepts hands the payload
		// to the visitor by value, which must not reach the heap.
		walk := &sumWalk{e: e}
		eval := func(slot int, gk keys.Key, g *tree.Cell, ctr *diag.Counters) {
			ctr.PP++
		}

		// Warm up: first call per label builds the persistent abm
		// engine and the scratch maps.
		e.WalkGroups("walk", walk, nil)
		if avg := testing.AllocsPerRun(20, func() {
			e.WalkGroups("walk", walk, nil)
		}); avg > 2 {
			t.Errorf("inline WalkGroups allocates %.1f/call in steady state, want <= 2", avg)
		}

		// Same with the eval pipeline attached: slot tokens, job
		// structs and counter folding must all ride on persistent
		// storage.
		e.ConfigureOverlap(1, 0)
		e.WalkGroups("walk", walk, eval)
		if avg := testing.AllocsPerRun(20, func() {
			e.WalkGroups("walk", walk, eval)
		}); avg > 2 {
			t.Errorf("pipelined WalkGroups allocates %.1f/call in steady state, want <= 2", avg)
		}
	})
}

// TestPrefetchPiggybacking drives the exhaustive walk at np=4 with and
// without serve-side prefetch. Depth 1 must cut the request rounds
// (children arrive with their parent), account speculative imports in
// the Prefetched/PrefetchUsed counters, and leave the completed-walk
// traversal counts bitwise identical -- prefetch changes when cells
// arrive, never what the walk does with them.
func TestPrefetchPiggybacking(t *testing.T) {
	const n, np = 700, 4
	type rankStat struct {
		trav, prefetched, used uint64
		rounds, remote, ids    int
	}
	run := func(depth int) []rankStat {
		stats := make([]rankStat, np)
		global := randomSystem(n, 12345)
		msg.Run(np, func(c *msg.Comm) {
			phys := &countPhysics{}
			var e *hotengine.Engine[float64, []int64]
			phys.e = func() *hotengine.Engine[float64, []int64] { return e }
			e = hotengine.New[float64, []int64](c, scatterTo(global, c), phys, hotengine.Config{
				MAC:           grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.5},
				Bucket:        8,
				PrefetchDepth: depth,
			})
			e.Exchange()
			ids := map[int64]bool{}
			w := &idWalk{e: e, phys: phys, ids: ids}
			e.WalkGroups("walk", w, w.collect)
			stats[c.Rank()] = rankStat{
				trav:       e.Counters.Traversals,
				prefetched: e.Counters.Prefetched,
				used:       e.Counters.PrefetchUsed,
				rounds:     e.Rounds,
				remote:     e.RemoteCells,
				ids:        len(ids),
			}
		})
		return stats
	}

	base := run(0)
	pre := run(1)
	baseRounds, preRounds := 0, 0
	for r := 0; r < np; r++ {
		if base[r].ids != n || pre[r].ids != n {
			t.Fatalf("rank %d: incomplete ID sets (%d / %d of %d)", r, base[r].ids, pre[r].ids, n)
		}
		if base[r].prefetched != 0 || base[r].used != 0 {
			t.Errorf("rank %d: depth 0 recorded prefetch activity (%d/%d)", r, base[r].used, base[r].prefetched)
		}
		if pre[r].prefetched == 0 {
			t.Errorf("rank %d: depth 1 imported no cells speculatively", r)
		}
		if pre[r].used == 0 || pre[r].used > pre[r].prefetched {
			t.Errorf("rank %d: prefetch hits %d of %d speculative imports", r, pre[r].used, pre[r].prefetched)
		}
		if pre[r].trav != base[r].trav {
			t.Errorf("rank %d: traversal count changed with prefetch: %d vs %d", r, pre[r].trav, base[r].trav)
		}
		if pre[r].rounds > base[r].rounds {
			t.Errorf("rank %d: prefetch raised the request rounds: %d vs %d", r, pre[r].rounds, base[r].rounds)
		}
		// Dedup holds: speculative plus direct imports never exceed the
		// baseline's total fetch demand by more than the wasted
		// speculation, and every import is unique by construction.
		if pre[r].remote < base[r].remote {
			t.Errorf("rank %d: prefetch run imported fewer cells (%d) than the walk needs (%d)", r, pre[r].remote, base[r].remote)
		}
		baseRounds += base[r].rounds
		preRounds += pre[r].rounds
	}
	if preRounds >= baseRounds {
		t.Errorf("prefetch did not cut total request rounds: %d vs %d", preRounds, baseRounds)
	}
}
