package domain

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/vec"
)

// rankSnap freezes one rank's post-decomposition state.
type rankSnap struct {
	ids  []int64
	ks   []keys.Key
	pos  []vec.V3
	work []uint64
}

type stepSnap struct {
	splits []uint64
	ranks  []rankSnap
	stats  []Stats
}

// driftFn perturbs a local system before step's decomposition. It must
// depend only on body ID and step so every world moves bodies
// identically no matter which rank holds them.
type driftFn func(sys *core.System, step int)

// jitter drifts positions and work by a deterministic hash of (ID,
// step): small enough that the order is nearly preserved, large
// enough that some bodies change octants and ranks.
func jitter(scale float64) driftFn {
	return func(sys *core.System, step int) {
		for i := 0; i < sys.Len(); i++ {
			h := uint64(sys.ID[i])*2654435761 + uint64(step)*0x9e3779b9
			f := func(shift uint) float64 {
				return (float64((h>>shift)%1024)/1024 - 0.5) * scale
			}
			sys.Pos[i] = sys.Pos[i].Add(vec.V3{X: f(0), Y: f(10), Z: f(20)})
			sys.Work[i] = 100 + (h>>30)%100
		}
	}
}

// runWorld runs `steps` decompositions over np ranks, each rank using
// the Decomposer mk returns (nil means the one-shot wrapper), and
// snapshots every step.
func runWorld(t *testing.T, global *core.System, np, steps int, drift driftFn, mk func() *Decomposer) []stepSnap {
	t.Helper()
	n := global.Len()
	snaps := make([]stepSnap, steps)
	for s := range snaps {
		snaps[s].ranks = make([]rankSnap, np)
		snaps[s].stats = make([]Stats, np)
	}
	var mu sync.Mutex
	msg.Run(np, func(c *msg.Comm) {
		lo, hi := c.Rank()*n/np, (c.Rank()+1)*n/np
		local := core.New(0)
		local.EnableDynamics()
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}
		dec := mk()
		for s := 0; s < steps; s++ {
			if drift != nil {
				drift(local, s)
			}
			d := GlobalDomain(c, local)
			var res Result
			var st Stats
			if dec == nil {
				res = Decompose(c, local, d)
			} else {
				res = dec.Decompose(c, local, d)
				st = dec.Last
			}
			local = res.Sys
			mu.Lock()
			if c.Rank() == 0 {
				snaps[s].splits = append([]uint64(nil), res.Splits...)
			}
			snaps[s].ranks[c.Rank()] = rankSnap{
				ids:  append([]int64(nil), res.Sys.ID...),
				ks:   append([]keys.Key(nil), res.Sys.Key...),
				pos:  append([]vec.V3(nil), res.Sys.Pos...),
				work: append([]uint64(nil), res.Sys.Work...),
			}
			snaps[s].stats[c.Rank()] = st
			mu.Unlock()
		}
	})
	return snaps
}

func snapsEqual(t *testing.T, label string, want, got []stepSnap) {
	t.Helper()
	for s := range want {
		if len(want[s].splits) != len(got[s].splits) {
			t.Fatalf("%s step %d: split count differs", label, s)
		}
		for i := range want[s].splits {
			if want[s].splits[i] != got[s].splits[i] {
				t.Fatalf("%s step %d: splits[%d] %d != %d", label, s, i, got[s].splits[i], want[s].splits[i])
			}
		}
		for r := range want[s].ranks {
			w, g := want[s].ranks[r], got[s].ranks[r]
			if len(w.ids) != len(g.ids) {
				t.Fatalf("%s step %d rank %d: %d bodies, want %d", label, s, r, len(g.ids), len(w.ids))
			}
			for i := range w.ids {
				if w.ids[i] != g.ids[i] || w.ks[i] != g.ks[i] || w.pos[i] != g.pos[i] || w.work[i] != g.work[i] {
					t.Fatalf("%s step %d rank %d body %d differs: id %d/%d key %v/%v",
						label, s, r, i, g.ids[i], w.ids[i], g.ks[i], w.ks[i])
				}
			}
		}
	}
}

// The incremental decomposer (resort repair, one-allgather splitter
// search, merged exchange) must produce byte-identical splits and body
// order to the cold path, step after step, under drift that moves
// bodies between ranks -- and the one-allgather search must be what
// found most of those splits, or the test compares the full search
// with itself.
func TestDecomposerIncrementalMatchesCold(t *testing.T) {
	const n, steps = 1500, 10
	global := clustered(n, 7)
	for _, np := range []int{1, 2, 4, 8} {
		drift := jitter(2e-4)
		cold := runWorld(t, global, np, steps, drift, func() *Decomposer { return nil })
		inc := runWorld(t, global, np, steps, drift, func() *Decomposer { return &Decomposer{} })
		snapsEqual(t, "incremental", cold, inc)
		hits := 0
		for s := 1; s < steps && np > 1; s++ {
			for r, st := range inc[s].stats {
				if st.Rounds != inc[s].stats[0].Rounds || (st.Rounds != 1 && st.Rounds != 5) {
					t.Fatalf("np=%d step=%d rank=%d: search took %d collectives, rank 0's %d; want 1 or 5 on every rank",
						np, s, r, st.Rounds, inc[s].stats[0].Rounds)
				}
			}
			if inc[s].stats[0].Rounds == 1 {
				hits++
			}
		}
		if np > 1 && hits < steps/2 {
			t.Fatalf("np=%d: the one-allgather search settled %d of %d warm steps", np, hits, steps-1)
		}
		// Drift moved bodies across ranks at some step (otherwise the
		// test exercises nothing).
		if np > 1 {
			moved := false
			for s := 1; s < steps; s++ {
				for r := range inc[s].ranks {
					if len(inc[s].ranks[r].ids) != len(inc[s-1].ranks[r].ids) {
						moved = true
					}
					for i := range inc[s].ranks[r].ids {
						if i < len(inc[s-1].ranks[r].ids) && inc[s].ranks[r].ids[i] != inc[s-1].ranks[r].ids[i] {
							moved = true
						}
					}
				}
			}
			if !moved {
				t.Fatalf("np=%d: drift never changed any rank's bodies; test is vacuous", np)
			}
		}
	}
}

// A warm (persistent) decomposer on a static body set: the order
// repair finds nothing displaced and never falls back to the full
// sort, and every splitter sits where two ranks' bodies meet, so the
// search is the one allgather where the first call's was four
// collectives.
func TestDecomposerWarmPathEngages(t *testing.T) {
	const n, steps = 1200, 3
	global := clustered(n, 9)
	for _, np := range []int{2, 4, 8} {
		snaps := runWorld(t, global, np, steps, nil, func() *Decomposer { return &Decomposer{} })
		cold := runWorld(t, global, np, steps, nil, func() *Decomposer { return nil })
		snapsEqual(t, "static", cold, snaps)
		for r := 0; r < np; r++ {
			for s := 1; s < steps; s++ {
				st := snaps[s].stats[r]
				if st.Rounds != 1 || snaps[0].stats[r].Rounds != 4 {
					t.Fatalf("np=%d rank=%d step=%d: search took %d collectives, the first call %d, want 1 and 4",
						np, r, s, st.Rounds, snaps[0].stats[r].Rounds)
				}
				if st.Displaced != 0 {
					t.Fatalf("np=%d rank=%d step=%d: static bodies reported displaced=%d",
						np, r, s, st.Displaced)
				}
			}
		}
	}
}

// The first call of a fresh Decomposer must fall back to a full sort
// (nothing is known about the order) and pays the four collectives of
// the full search; on one rank there is no search.
func TestDecomposerColdStartStats(t *testing.T) {
	global := clustered(600, 11)
	snaps := runWorld(t, global, 4, 1, nil, func() *Decomposer { return &Decomposer{} })
	for r := 0; r < 4; r++ {
		st := snaps[0].stats[r]
		if st.Displaced != len(global.ID)/4 {
			t.Fatalf("rank %d: first call displaced=%d, want a full sort (%d)", r, st.Displaced, len(global.ID)/4)
		}
		if st.Rounds != 4 {
			t.Fatalf("rank %d: search took %d collectives, want 4", r, st.Rounds)
		}
	}
	if st := runWorld(t, global, 1, 1, nil, func() *Decomposer { return &Decomposer{} })[0].stats[0]; st.Rounds != 0 {
		t.Fatalf("np=1: search took %d collectives, want none", st.Rounds)
	}
}

// Sub timer accumulates the sorting share under "treebuild/sort".
func TestDecomposerSubTimer(t *testing.T) {
	sys := clustered(300, 13)
	msg.Run(1, func(c *msg.Comm) {
		dec := &Decomposer{Sub: diag.NewTimer()}
		d := GlobalDomain(c, sys)
		dec.Decompose(c, sys, d)
		found := false
		for _, ph := range dec.Sub.Phases() {
			if ph == "treebuild/sort" {
				found = true
			}
		}
		if !found {
			t.Fatalf("Sub phases = %v, want treebuild/sort", dec.Sub.Phases())
		}
	})
}
