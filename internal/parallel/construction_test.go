package parallel

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/vec"
)

// evalSnap freezes one evaluation's global outcome.
type evalSnap struct {
	acc    map[int64]vec.V3
	pot    map[int64]float64
	pp, pc uint64
}

// driftByID nudges every body by a hash of (ID, step), identically on
// any rank that holds it, so consecutive evaluations exercise the
// incremental resort.
func driftByID(sys *core.System, step int) {
	for i := 0; i < sys.Len(); i++ {
		h := uint64(sys.ID[i])*2654435761 + uint64(step)*0x9e3779b9
		f := func(shift uint) float64 {
			return (float64((h>>shift)%1024)/1024 - 0.5) * 1e-4
		}
		sys.Pos[i] = sys.Pos[i].Add(vec.V3{X: f(0), Y: f(10), Z: f(20)})
	}
}

// runPipeline runs `evals` force evaluations at np ranks under cfg,
// drifting bodies between them, and snapshots each. With fresh set,
// every evaluation after the first runs on a new engine over the
// bodies the last one left, in reverse order: nothing the construction
// pipeline keeps between steps (sorter scratch, cell buffers) is there
// to use, and the order repair has to fall back on the full sort.
func runPipeline(t *testing.T, n, np, evals int, cfg Config, fresh bool) []evalSnap {
	t.Helper()
	snaps := make([]evalSnap, evals)
	for s := range snaps {
		snaps[s].acc = make(map[int64]vec.V3, n)
		snaps[s].pot = make(map[int64]float64, n)
	}
	var mu sync.Mutex
	msg.Run(np, func(c *msg.Comm) {
		global := ic.Plummer(n, 1.0, 23)
		local := core.New(0)
		local.EnableDynamics()
		lo, hi := c.Rank()*n/np, (c.Rank()+1)*n/np
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}
		e := New(c, local, cfg)
		for s := 0; s < evals; s++ {
			if s > 0 {
				driftByID(e.Sys, s)
				if fresh {
					rev := core.New(0)
					rev.EnableDynamics()
					for i := e.Sys.Len() - 1; i >= 0; i-- {
						rev.AppendFrom(e.Sys, i)
					}
					e = New(c, rev, cfg)
				}
			}
			in := e.Sys.Len()
			ctr := e.ComputeForces()
			st := e.DecomposeStats()
			if full := st.Displaced == in && in > 0; s > 0 && full != (fresh && st.Displaced > 1) {
				t.Errorf("np=%d eval=%d fresh=%v: full sort %v (%d displaced)", np, s, fresh, full, st.Displaced)
			}
			// A fresh engine searches its splitters in full; a kept one
			// finds them in one allgather, so the equality below is
			// between the two searches as well.
			if want := map[bool]int{true: 4, false: 1}[fresh || s == 0]; np > 1 && st.Rounds != want {
				t.Errorf("np=%d eval=%d fresh=%v: splitter search took %d collectives, want %d", np, s, fresh, st.Rounds, want)
			}
			mu.Lock()
			snaps[s].pp += ctr.PP
			snaps[s].pc += ctr.PC
			for i := 0; i < e.Sys.Len(); i++ {
				snaps[s].acc[e.Sys.ID[i]] = e.Sys.Acc[i]
				snaps[s].pot[e.Sys.ID[i]] = e.Sys.Pot[i]
			}
			mu.Unlock()
		}
	})
	return snaps
}

// The incremental construction pipeline must not change a single
// output bit: an engine kept across a drifting multi-step run, which
// repairs the order of the few bodies that moved and finds its
// splitters in one allgather, and a fresh engine per evaluation, which
// sorts and searches in full, give the same forces, potentials and
// interaction counts at every rank count.
func TestConstructionEquivalenceAcrossPipelines(t *testing.T) {
	const n, evals = 1200, 3
	cfg := Config{
		MAC:  grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true},
		Eps2: 1e-6,
	}
	for _, np := range []int{1, 2, 8} {
		ref := runPipeline(t, n, np, evals, cfg, true)
		got := runPipeline(t, n, np, evals, cfg, false)
		for s := 0; s < evals; s++ {
			if got[s].pp != ref[s].pp || got[s].pc != ref[s].pc {
				t.Errorf("np=%d eval=%d: PP/PC %d/%d, fresh engine %d/%d",
					np, s, got[s].pp, got[s].pc, ref[s].pp, ref[s].pc)
			}
			if len(got[s].acc) != len(ref[s].acc) {
				t.Fatalf("np=%d eval=%d: %d bodies, want %d", np, s, len(got[s].acc), len(ref[s].acc))
			}
			for id, a := range ref[s].acc {
				if got[s].acc[id] != a || got[s].pot[id] != ref[s].pot[id] {
					t.Fatalf("np=%d eval=%d: body %d force differs bitwise from a fresh engine's", np, s, id)
				}
			}
		}
	}
}
