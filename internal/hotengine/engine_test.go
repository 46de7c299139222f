package hotengine_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/hotengine"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
)

// countPhysics is a minimal synthetic physics used to exercise the
// engine core in isolation: the per-cell payload is the body count
// (as a float, with addition as the combine rule) and the leaf
// payload is the particle IDs.
type countPhysics struct{}

func (countPhysics) Prepare(sys *core.System) {}
func (countPhysics) PostBuild(t *tree.Tree)   {}

func (countPhysics) Extra(c *tree.Cell) float64           { return float64(c.N) }
func (countPhysics) CombineExtra(acc, ch float64) float64 { return acc + ch }

func (countPhysics) Columns(sys *core.System) ids { return ids{sys.ID} }

// ids is the synthetic physics' leaf payload, one column.
type ids struct{ ID []int64 }

func (s ids) Slice(lo, hi int32) ids { return ids{s.ID[lo:hi]} }
func (s ids) Append(b ids) ids       { return ids{append(s.ID, b.ID...)} }

// idWalk is the exhaustive traversal of the synthetic physics as a
// range query: no opening criterion, every reachable leaf is visited, and
// the leaf IDs of a completed walk land in ids.
type idWalk struct {
	e   *hotengine.Engine[float64, ids]
	got []int64
	ids map[int64]bool
}

func (w *idWalk) Begin(keys.Key, vec.V3)        { w.got = w.got[:0] }
func (w *idWalk) Cells([]*tree.Cell, []float64) {}

func (w *idWalk) Sphere(*tree.Cell) (vec.V3, float64)           { return vec.V3{}, 0 }
func (w *idWalk) TestBound(*tree.Cell, *tree.Bound) tree.Action { return tree.Open }

func (w *idWalk) Leaves(cells []*tree.Cell) {
	for _, c := range cells {
		b, lo, hi := w.e.LeafBodies(c)
		w.got = append(w.got, b.ID[lo:hi]...)
	}
}

// collect is the walk's EvalFn: it runs once per completed group.
func (w *idWalk) collect(keys.Key, *tree.Cell, *diag.Counters) {
	for _, id := range w.got {
		w.ids[id] = true
	}
}

func randomSystem(n int, seed int64) *core.System {
	rng := rand.New(rand.NewSource(seed))
	sys := core.New(n)
	for i := 0; i < n; i++ {
		sys.Pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		sys.Mass[i] = 1
	}
	return sys
}

func scatterTo(global *core.System, c *msg.Comm) *core.System {
	n := global.Len()
	lo, hi := c.Rank()*n/c.Size(), (c.Rank()+1)*n/c.Size()
	local := core.New(0)
	for i := lo; i < hi; i++ {
		local.AppendFrom(global, i)
	}
	return local
}

// TestEngineCoreFullTraversal runs the pipeline with the synthetic
// physics on several rank counts and does an exhaustive walk (no
// opening criterion: every leaf is visited), checking that the top
// tree's root payload combines to the global count and that every
// rank assembles the complete global ID set from what the owners push
// (an exhaustive walk's bound opens everything) without a request.
func TestEngineCoreFullTraversal(t *testing.T) {
	const n = 700
	for _, np := range []int{1, 2, 4, 8} {
		global := randomSystem(n, 12345)
		var mu sync.Mutex
		seen := map[int]map[int64]bool{}
		msg.Run(np, func(c *msg.Comm) {
			e := hotengine.New[float64, ids](c, scatterTo(global, c), countPhysics{}, hotengine.Config{
				MAC:    grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.5},
				Bucket: 8,
			})
			e.Exchange()

			// The shared top tree's root must exist on every rank and
			// carry the combined payload: the global body count.
			root, extra, ok := e.Resolve(keys.Root)
			if !ok {
				t.Errorf("np=%d rank=%d: root not resolvable", np, c.Rank())
				return
			}
			if root.N != int32(n) || extra != float64(n) {
				t.Errorf("np=%d rank=%d: root N=%d extra=%v, want %d", np, c.Rank(), root.N, extra, n)
			}

			// Exhaustive walk: gather every particle ID reachable from
			// the root.
			w := &idWalk{e: e, ids: map[int64]bool{}}
			e.WalkGroups("walk", w, w.collect)
			ids := w.ids

			if np > 1 && e.RemoteCells == 0 {
				t.Errorf("np=%d rank=%d: exhaustive walk imported no remote cells", np, c.Rank())
			}
			// The local tree's children sit where its cells say, and only
			// this rank's own branches carry that index out of it.
			if err := e.Local.CheckInvariants(); err != nil {
				t.Errorf("np=%d rank=%d: %v", np, c.Rank(), err)
			}
			if err := e.CheckLET(); err != nil {
				t.Errorf("np=%d rank=%d: %v", np, c.Rank(), err)
			}
			if e.Rounds != 0 || e.Park != (hotengine.ParkCounters{}) {
				t.Errorf("np=%d rank=%d: pushed walk still asked: %d rounds, %+v", np, c.Rank(), e.Rounds, e.Park)
			}
			mu.Lock()
			seen[c.Rank()] = ids
			mu.Unlock()
		})
		for r := 0; r < np; r++ {
			if len(seen[r]) != n {
				t.Fatalf("np=%d rank=%d: saw %d of %d particle IDs", np, r, len(seen[r]), n)
			}
		}
	}
}

// TestWalkGroupsIfIdleRankServes is the partial walk of block
// timesteps at its most lopsided: rank 1 has no active group, yet rank
// 0's exhaustive walk needs rank 1's whole tree, a level per round.
// Every request after the first round is discovered by resuming a
// suspended group below its frontier, and rank 1 must stay in the
// collective rounds to serve them without ever walking itself. The
// push is off: with it rank 1 sends its whole tree up front.
func TestWalkGroupsIfIdleRankServes(t *testing.T) {
	const n = 700
	global := randomSystem(n, 99)
	var got, rounds, groups [2]int
	var ctr [2]diag.Counters
	var park [2]hotengine.ParkCounters
	msg.Run(2, func(c *msg.Comm) {
		e := hotengine.New[float64, ids](c, scatterTo(global, c), countPhysics{}, hotengine.Config{
			MAC: grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.5}, Bucket: 8,
		})
		e.SetPush(false)
		e.Exchange()
		w := &idWalk{e: e, ids: map[int64]bool{}}
		e.WalkGroupsIf("walk", func(*tree.Cell) bool { return c.Rank() == 0 }, w, w.collect)
		got[c.Rank()], ctr[c.Rank()], park[c.Rank()] = len(w.ids), e.Counters, e.Park
		rounds[c.Rank()], groups[c.Rank()] = e.Rounds, len(e.Local.Groups)
	})
	if got[0] != n {
		t.Errorf("active rank saw %d of %d particle IDs", got[0], n)
	}
	if got[1] != 0 || ctr[1].Traversals != 0 || park[1].Rewalked != 0 || park[1].Requests != 0 {
		t.Errorf("idle rank walked: %d ids, counters %+v %+v", got[1], ctr[1], park[1])
	}
	if rounds[0] < 2 || rounds[1] != rounds[0] {
		t.Errorf("rounds = %v, want the idle rank in every one of the active rank's >= 2 rounds", rounds)
	}
	// Parked more often than there are groups: some group was resumed
	// and parked again on keys its discovery descent found.
	if park[0].Deferred <= uint64(groups[0]) {
		t.Errorf("active rank parked %d times for %d groups: no resumed group discovered new keys", park[0].Deferred, groups[0])
	}
}

// TestEngineTimerPhases checks the diagnostics parity the shared core
// provides: every instantiation gets the same per-phase breakdown.
func TestEngineTimerPhases(t *testing.T) {
	global := randomSystem(300, 9)
	msg.Run(2, func(c *msg.Comm) {
		e := hotengine.New[float64, ids](c, scatterTo(global, c), countPhysics{}, hotengine.Config{
			MAC: grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.5}, Bucket: 8,
		})
		e.Exchange()
		e.WalkGroups("walk", &idWalk{e: e}, nil)
		want := []string{"decompose", "treebuild", "branches", "walk"}
		got := e.Timer.Phases()
		if len(got) != len(want) {
			t.Fatalf("timer phases = %v, want %v", got, want)
		}
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("timer phases = %v, want %v", got, want)
			}
		}
	})
}

// A walk that needs more request rounds than the engine allows (here
// an exhaustive walk, one round per tree level below the branches,
// against a budget of one, SetMaxRounds, the push off) must end in a prompt
// world-wide abort -- not the panic-plus-survivor-deadlock it used to be.
// The WorldError carries each rank's batched-request round so the
// report shows how far the protocol got.
func TestMaxRoundsAbort(t *testing.T) {
	global := randomSystem(700, 77)
	done := make(chan *msg.WorldError, 1)
	go func() {
		w := msg.NewWorld(2)
		done <- w.RunErr(func(c *msg.Comm) {
			e := hotengine.New[float64, ids](c, scatterTo(global, c), countPhysics{}, hotengine.Config{
				MAC:    grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.5},
				Bucket: 8,
			})
			e.SetMaxRounds(1)
			e.SetPush(false)
			e.Exchange()
			e.WalkGroups("walk", &idWalk{e: e}, nil)
		})
	}()
	var err *msg.WorldError
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("round limit overrun hung instead of aborting")
	}
	if err == nil {
		t.Fatal("expected a WorldError from the round limit backstop")
	}
	if !strings.Contains(err.Cause.Error(), "exceeded the limit of 1 in") {
		t.Fatalf("cause = %v, want a round limit overrun", err.Cause)
	}
	if !strings.Contains(err.Cause.Error(), `phase "walk"`) {
		t.Fatalf("cause does not name the phase: %v", err.Cause)
	}
	// Both ranks ran batched-request rounds before the abort; the
	// state table must carry that progress.
	for _, s := range err.Ranks {
		if s.Round == 0 {
			t.Fatalf("rank %d shows no request rounds: %+v", s.Rank, err.Ranks)
		}
	}
}
