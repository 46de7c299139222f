package domain

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ic"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/vec"
)

// exchangeSnap is one rank's outcome of one decomposition: the bodies
// in the order they came out, the splits, the bodies sent away, and
// the stats.
type exchangeSnap struct {
	ids    []int64
	pos    []vec.V3
	vel    []vec.V3
	work   []float64
	splits []uint64
	moved  int
	stats  Stats
}

// driftStrayHeavy reshapes a rank's bodies before a step's
// decomposition, as a function of body ID and step alone: every body
// drifts by up to 1e-4 of the box, on odd steps one in 97 strays
// through the box's centre to the far side, and body 0 of n weighs about as much as all
// the others together, so on four ranks or more the splitters on
// either side of it meet and some rank is left empty.
func driftStrayHeavy(sys *core.System, box keys.Domain, n, step int) {
	centre := box.Origin.Add(vec.V3{X: box.Size / 2, Y: box.Size / 2, Z: box.Size / 2})
	for i := range sys.Pos {
		h := hash32(sys.ID[i], step)
		f := func(shift uint) float64 { return (float64((h>>shift)%1024)/1024 - 0.5) * 1e-4 * box.Size }
		sys.Pos[i] = sys.Pos[i].Add(vec.V3{X: f(0), Y: f(10), Z: f(20)})
		if step%2 == 1 && h%97 == 0 {
			sys.Pos[i] = centre.Scale(2).Sub(sys.Pos[i])
		}
		sys.Work[i] = 1 + float64(hash32(sys.ID[i], 0)%4)
		if sys.ID[i] == 0 {
			sys.Work[i] = 2.5 * float64(n)
		}
	}
}

// runExchanges runs steps decompositions of global over np ranks with a
// persistent Decomposer per rank, decomposing with decompose, and
// returns every rank's outcome per step.
func runExchanges(global *core.System, np, steps int, decompose func(*Decomposer, *msg.Comm, *core.System, keys.Domain) Result) [][]exchangeSnap {
	n, box := global.Len(), keys.NewDomain(global.Pos)
	out := make([][]exchangeSnap, steps)
	for s := range out {
		out[s] = make([]exchangeSnap, np)
	}
	var mu sync.Mutex
	msg.Run(np, func(c *msg.Comm) {
		local := core.New(0)
		local.EnableDynamics()
		for i := c.Rank() * n / np; i < (c.Rank()+1)*n/np; i++ {
			local.AppendFrom(global, i)
		}
		var dc Decomposer
		for s := 0; s < steps; s++ {
			driftStrayHeavy(local, box, n, s)
			res := decompose(&dc, c, local, GlobalDomain(c, local))
			local = res.Sys
			mu.Lock()
			out[s][c.Rank()] = exchangeSnap{
				ids:    slices.Clone(local.ID),
				pos:    slices.Clone(local.Pos),
				vel:    slices.Clone(local.Vel),
				work:   slices.Clone(local.Work),
				splits: slices.Clone(res.Splits),
				moved:  res.Moved,
				stats:  dc.Last,
			}
			mu.Unlock()
		}
	})
	return out
}

// The exchange the splitter windows plan must leave every rank exactly
// what the exchange over every pair leaves -- the same bodies in the
// same (Key, ID) order, the same splits, the same count of bodies sent
// away -- step after step of drift, with strays far from home and an
// empty rank, on Plummer and clustered bodies; and it must have left
// some pair out, or the test compares the dense exchange with itself.
func TestSparseExchangeMatchesDense(t *testing.T) {
	const n, steps = 2000, 5
	ics := []struct {
		name string
		gen  func() *core.System
	}{
		{"plummer", func() *core.System { return ic.Plummer(n, 1, 23) }},
		{"clustered", func() *core.System { return clustered(n, 23) }},
	}
	for _, np := range []int{2, 4, 8} {
		for _, gen := range ics {
			global := gen.gen()
			got := runExchanges(global, np, steps, (*Decomposer).Decompose)
			want := runExchanges(global, np, steps, (*Decomposer).decomposeDense)
			planned, left, empty := 0, 0, false
			for s := range want {
				for r := range want[s] {
					g, w := got[s][r], want[s][r]
					if !slices.Equal(g.ids, w.ids) || !slices.Equal(g.pos, w.pos) || !slices.Equal(g.vel, w.vel) ||
						!slices.Equal(g.work, w.work) || !slices.Equal(g.splits, w.splits) || g.moved != w.moved {
						t.Fatalf("np=%d %s step %d rank %d: the planned exchange left %d bodies (moved %d, splits %x), every pair %d (moved %d, splits %x)",
							np, gen.name, s, r, len(g.ids), g.moved, g.splits, len(w.ids), w.moved, w.splits)
					}
					if w.stats.Batches != np-1 || g.stats.Batches > np-1 || g.stats.Rounds != w.stats.Rounds {
						t.Fatalf("np=%d %s step %d rank %d: %d batches planned in %d collectives, every pair %d in %d",
							np, gen.name, s, r, g.stats.Batches, g.stats.Rounds, w.stats.Batches, w.stats.Rounds)
					}
					if s > 0 && g.stats.Rounds == 1 {
						planned++
						left += np - 1 - g.stats.Batches
					}
					empty = empty || (s > 0 && len(g.ids) == 0)
				}
			}
			if planned == 0 || left == 0 {
				t.Fatalf("np=%d %s: %d rank-steps planned their exchange and left out %d batches: the test exercises nothing", np, gen.name, planned, left)
			}
			if np >= 4 && !empty {
				t.Fatalf("np=%d %s: no rank was ever empty after a warm step", np, gen.name)
			}
			t.Logf("np=%d %s: %d rank-steps planned, %d of their %d batches left out", np, gen.name, planned, left, planned*(np-1))
		}
	}
}

// On one rank nothing moves, so the decomposition returns its keyed,
// sorted input instead of packing every body into a wire record and
// unpacking it into a fresh system. The result is the wire path's bit
// for bit: the same columns present and absent, every column in the same
// order with the same values and keys (accelerations and potentials
// zeroed, a density without smoothing lengths dropped, as the wire
// carries them), and the same splits, domain, moves and stats -- over
// every column layout the engines use, and on a warm decomposer too.
func TestOneRankKeepsWhatTheWireCarries(t *testing.T) {
	layouts := map[string]func(*core.System){
		"plain":    func(*core.System) {},
		"dynamics": (*core.System).EnableDynamics,
		"vortex":   func(s *core.System) { s.EnableDynamics(); s.EnableVortex() },
		"sph":      func(s *core.System) { s.EnableDynamics(); s.EnableSPH() },
		"rungs":    func(s *core.System) { s.EnableDynamics(); s.EnableRungs() },
		"rho only": func(s *core.System) { s.Rho = make([]float64, s.Len()) },
		"acc only": func(s *core.System) { s.Acc = make([]vec.V3, s.Len()) },
	}
	src := ic.Plummer(500, 1, 3)
	for name, enable := range layouts {
		var keep, wire Decomposer
		for step := 0; step < 2; step++ {
			in := core.New(src.Len())
			enable(in)
			for i := range in.Pos {
				in.Pos[i] = src.Pos[i].Scale(1 + 0.01*float64(step))
				in.Mass[i], in.ID[i], in.Work[i] = src.Mass[i], int64(src.Len()-1-i), float64(1+i%7)
				f := float64(i + 1)
				for _, col := range [][]float64{in.Pot, in.H, in.Rho} {
					if col != nil {
						col[i] = f
					}
				}
				for _, col := range [][]vec.V3{in.Vel, in.Acc, in.Alpha} {
					if col != nil {
						col[i] = vec.V3{X: f, Y: -f, Z: 2 * f}
					}
				}
				if in.Rung != nil {
					in.Rung[i] = uint8(i % 5)
				}
			}
			copyIn := core.New(0)
			enable(copyIn)
			for i := 0; i < in.Len(); i++ {
				copyIn.AppendFrom(in, i)
			}
			d := keys.NewDomain(in.Pos)
			var got, want Result
			msg.Run(1, func(c *msg.Comm) {
				got = keep.Decompose(c, in, d)
				want = wire.decomposeDense(c, copyIn, d)
			})
			if got.Sys != in {
				t.Fatalf("%s step %d: one rank returned a new system", name, step)
			}
			if !reflect.DeepEqual(got.Sys, want.Sys) {
				t.Fatalf("%s step %d: the bodies kept differ from what the wire carried", name, step)
			}
			got.Sys, want.Sys = nil, nil
			if !reflect.DeepEqual(got, want) || keep.Last != wire.Last {
				t.Fatalf("%s step %d: one rank kept %+v / %+v, the wire carried %+v / %+v", name, step, got, keep.Last, want, wire.Last)
			}
		}
	}
}
