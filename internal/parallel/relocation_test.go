package parallel

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
)

// evalRec is what one evaluation of a kept engine left, beside what a
// fresh engine over the same bodies found.
type evalRec struct {
	kept, fresh map[int64]vec.V3
	bodies      *core.System // every rank's bodies as evaluated, by ID
	relocated   []bool       // per rank: domain.Stats.Relocated
	rounds      []int        // per rank: domain.Stats.Rounds
	colls       []int        // per rank: collectives of the evaluation
}

// keptVsFresh runs evals force evaluations of the bodies of global at
// np ranks on one kept engine, calling between on each rank's bodies
// before every evaluation after the first. Each evaluation is also run
// by a fresh engine over a reversed copy of the same bodies, which
// allreduces the box, sorts and searches in full: nothing of the kept
// engine's history is there to use.
func keptVsFresh(t *testing.T, global *core.System, np, evals int, cfg Config, between func(sys *core.System, s int)) []evalRec {
	t.Helper()
	recs := make([]evalRec, evals)
	for s := range recs {
		recs[s] = evalRec{
			kept: map[int64]vec.V3{}, fresh: map[int64]vec.V3{}, bodies: core.New(0),
			relocated: make([]bool, np), rounds: make([]int, np), colls: make([]int, np),
		}
		recs[s].bodies.EnableDynamics()
	}
	var mu sync.Mutex
	msg.Run(np, func(c *msg.Comm) {
		e := New(c, scatter(global, c), cfg)
		for s := 0; s < evals; s++ {
			if s > 0 {
				between(e.Sys, s)
			}
			rev := core.New(0)
			rev.EnableDynamics()
			for i := e.Sys.Len() - 1; i >= 0; i-- {
				rev.AppendFrom(e.Sys, i)
			}
			before := c.Collectives()
			e.ComputeForces()
			colls := int(c.Collectives() - before)
			f := New(c, rev, cfg)
			f.ComputeForces()

			mu.Lock()
			r := &recs[s]
			r.relocated[c.Rank()], r.rounds[c.Rank()], r.colls[c.Rank()] =
				e.DecomposeStats().Relocated, e.DecomposeStats().Rounds, colls
			for i := 0; i < e.Sys.Len(); i++ {
				r.kept[e.Sys.ID[i]] = e.Sys.Acc[i]
			}
			for i := 0; i < f.Sys.Len(); i++ {
				r.fresh[f.Sys.ID[i]] = f.Sys.Acc[i]
			}
			for i := 0; i < rev.Len(); i++ {
				r.bodies.AppendFrom(rev, i)
			}
			mu.Unlock()
		}
	})
	return recs
}

// sameForces fails the test unless the kept engine's forces of every
// evaluation equal the fresh engine's bit for bit.
func sameForces(t *testing.T, where string, recs []evalRec, n int) {
	t.Helper()
	for s, r := range recs {
		if len(r.kept) != n || len(r.fresh) != n {
			t.Fatalf("%s eval %d: %d and %d bodies, want %d", where, s, len(r.kept), len(r.fresh), n)
		}
		for id, a := range r.fresh {
			if r.kept[id] != a {
				t.Fatalf("%s eval %d: body %d force differs bitwise from a fresh engine's", where, s, id)
			}
		}
	}
}

// The key domain is a function of the bodies, not of the run. Between
// two evaluations the body lowest in x moves half a lattice cell below
// the domain's origin, so the domain the kept engine predicts is not
// the bodies' any more: at np > 1 every rank learns it from the boxes
// on the splitter allgather, re-keys, re-sorts and searches again --
// one collective more than a warm step, no more -- and its forces are
// those of a fresh engine over the same bodies, bit for bit. The next
// evaluation predicts right again. On one rank the domain is the
// bodies' box by definition and there is nothing to predict.
func TestDomainRelocationMatchesFreshEngine(t *testing.T) {
	const n, evals = 1200, 3
	cfg := Config{MAC: grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true}, Eps2: 1e-6}
	global := ic.Plummer(n, 1.0, 23)
	box := keys.BoxOf(global.Pos)
	var low int64
	for i := range global.Pos {
		if global.Pos[i].X == box.Lo.X {
			low = global.ID[i]
		}
	}
	x := keys.DomainOf(box).Origin.X - keys.Lattice(box.Span())/2
	moved := box
	moved.Lo.X = x
	if keys.DomainOf(moved) == keys.DomainOf(box) {
		t.Fatalf("moving body %d to x = %g leaves the domain %+v", low, x, keys.DomainOf(box))
	}
	between := func(sys *core.System, s int) {
		driftByID(sys, s)
		for i := range sys.ID {
			if s == 1 && sys.ID[i] == low {
				sys.Pos[i].X = x
			}
		}
	}
	for _, np := range []int{1, 2, 8} {
		recs := keptVsFresh(t, global, np, evals, cfg, between)
		sameForces(t, fmt.Sprintf("np=%d", np), recs, n)
		for s, r := range recs {
			for rank := 0; rank < np; rank++ {
				reloc := np > 1 && s == 1
				if r.relocated[rank] != reloc {
					t.Errorf("np=%d eval %d rank %d: relocated %v, want %v", np, s, rank, r.relocated[rank], reloc)
				}
				if np == 1 || s == 0 {
					continue
				}
				// A warm evaluation is its splitter search and three
				// collectives more: bodies, branches and push.
				rounds := 1
				if reloc {
					rounds = 2
				}
				if r.rounds[rank] != rounds || r.colls[rank] != 3+rounds {
					t.Errorf("np=%d eval %d rank %d: %d collectives, %d of them the splitter search; want %d and %d",
						np, s, rank, r.colls[rank], r.rounds[rank], 3+rounds, rounds)
				}
			}
		}
	}
}

// A cold collapse shrinks its bounding box step after step, so the
// predicted domain keeps missing: through every relocation, at every
// np, the kept engine's forces are a fresh engine's over the same
// bodies, and on one rank they are the serial tree's over them, in
// keys.NewDomain of their positions, bit for bit.
func TestColdCollapseRelocationsStayHistoryFree(t *testing.T) {
	const n, evals, dt = 600, 12, 0.05
	cfg := Config{MAC: grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true}, Eps2: 1e-4}
	global := ic.UniformSphere(n, 1, 7)
	step := func(sys *core.System, _ int) {
		integrate.Kick(sys, dt)
		integrate.Drift(sys, dt)
	}
	for _, np := range []int{1, 2, 8} {
		recs := keptVsFresh(t, global, np, evals, cfg, step)
		sameForces(t, fmt.Sprintf("np=%d", np), recs, n)
		relocations := 0
		for _, r := range recs {
			if r.relocated[0] {
				relocations++
			}
		}
		t.Logf("np=%d: %d of %d evaluations relocated the domain", np, relocations, evals)
		if np > 1 && relocations < 2 {
			t.Errorf("np=%d: %d relocations over the collapse, want several", np, relocations)
		}
		if np > 1 {
			continue
		}
		for s, r := range recs {
			sys := r.bodies
			d := keys.NewDomain(sys.Pos)
			sys.AssignKeys(d)
			sys.SortByKey()
			tree.Build(sys, d, cfg.MAC, tree.DefaultBucketSize).Gravity(cfg.Eps2)
			for i, id := range sys.ID {
				if sys.Acc[i] != r.kept[id] {
					t.Fatalf("np=1 eval %d: body %d force differs bitwise from the serial tree's", s, id)
				}
			}
		}
	}
}
