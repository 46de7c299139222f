package domain

import (
	"errors"
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
	work   []uint64
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
		sys.Work[i] = 1 + hash32(sys.ID[i], 0)%4
		if sys.ID[i] == 0 {
			sys.Work[i] = 5 * uint64(n) / 2
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

// layouts are the column layouts the engines use (gravity's dynamics,
// a block step's rungs, vortex, a vortex step's midpoint, SPH) and two
// odd ones, with the bytes a body of each carries when it changes
// ranks: position, mass, work and ID (48), then velocity (24), vortex
// strength (24), the pre-step position and strength (48), smoothing
// length with density (16) and rung (1) where the layout has them; never the
// key, acceleration or potential, nor a density without smoothing
// lengths.
var layouts = []struct {
	name    string
	enable  func(*core.System)
	carried int
}{
	{"plain", func(*core.System) {}, 48},
	{"dynamics", (*core.System).EnableDynamics, 72},
	{"vortex", func(s *core.System) { s.EnableDynamics(); s.EnableVortex() }, 96},
	{"vortex step", func(s *core.System) {
		s.EnableDynamics()
		s.EnableVortex()
		s.Pos0, s.Alpha0 = make([]vec.V3, s.Len()), make([]vec.V3, s.Len())
	}, 144},
	{"sph", func(s *core.System) { s.EnableDynamics(); s.EnableSPH() }, 88},
	{"rungs", func(s *core.System) { s.EnableDynamics(); s.EnableRungs() }, 73},
	{"rho only", func(s *core.System) { s.Rho = make([]float64, s.Len()) }, 48},
	{"acc only", func(s *core.System) { s.Acc = make([]vec.V3, s.Len()) }, 48},
}

// layoutSystem is src's bodies, positions scaled, in the layout enable
// makes, every column filled with values of its own and the IDs
// reversed.
func layoutSystem(src *core.System, enable func(*core.System), scale float64) *core.System {
	in := core.New(src.Len())
	enable(in)
	for i := range in.Pos {
		in.Pos[i] = src.Pos[i].Scale(scale)
		in.Mass[i], in.ID[i], in.Work[i] = src.Mass[i], int64(src.Len()-1-i), uint64(1+i%7)
		f := float64(i + 1)
		for _, col := range [][]float64{in.Pot, in.H, in.Rho} {
			if col != nil {
				col[i] = f
			}
		}
		for _, col := range [][]vec.V3{in.Vel, in.Acc, in.Alpha, in.Pos0, in.Alpha0} {
			if col != nil {
				col[i] = vec.V3{X: f, Y: -f, Z: 2 * f}
			}
		}
		if in.Rung != nil {
			in.Rung[i] = uint8(i % 5)
		}
	}
	return in
}

// On one rank nothing moves, so the decomposition returns its keyed,
// sorted input instead of copying every body into a fresh system. The
// result is the exchange's bit for bit: the same columns present and
// absent, every column in the same order with the same values and keys
// (accelerations and potentials zeroed, a density without smoothing
// lengths dropped, as the exchange lays out what arrives), and the same
// splits, domain, moves and stats -- over every column layout, and on a
// warm decomposer too.
func TestOneRankKeepsWhatTheWireCarries(t *testing.T) {
	src := ic.Plummer(500, 1, 3)
	for _, l := range layouts {
		var keep, wire Decomposer
		for step := 0; step < 2; step++ {
			in := layoutSystem(src, l.enable, 1+0.01*float64(step))
			copyIn := core.New(0)
			l.enable(copyIn)
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
				t.Fatalf("%s step %d: one rank returned a new system", l.name, step)
			}
			if !reflect.DeepEqual(got.Sys, want.Sys) {
				t.Fatalf("%s step %d: the bodies kept differ from what the exchange carried", l.name, step)
			}
			got.Sys, want.Sys = nil, nil
			if !reflect.DeepEqual(got, want) || keep.Last != wire.Last {
				t.Fatalf("%s step %d: one rank kept %+v / %+v, the exchange carried %+v / %+v", l.name, step, got, keep.Last, want, wire.Last)
			}
		}
	}
}

// The body exchange charges each body it sends at the bytes of the
// columns that body carries, whatever the layout: at np = 2, the
// exchange's bytes are the bodies sent away times the layout's carried
// bytes (72 for gravity, where a fixed 113-byte record was charged).
func TestExchangeBytesFollowTheColumns(t *testing.T) {
	src := ic.Plummer(600, 1, 5)
	for _, l := range layouts {
		w := msg.NewWorld(2)
		var moved [2]int
		w.Run(func(c *msg.Comm) {
			all := layoutSystem(src, l.enable, 1)
			n := all.Len()
			in := all.Slice(c.Rank()*n/2, (c.Rank()+1)*n/2)
			var dc Decomposer
			dc.dom = GlobalDomain(c, in)
			splits := dc.search(c, in)
			c.Phase("body exchange")
			moved[c.Rank()] = dc.exchange(c, in, splits, dc.plan(splits)).Moved
		})
		for r, m := range moved {
			got := w.RankTraffic(r).Phases["body exchange"].Bytes
			if want := uint64(m * l.carried); m == 0 || got != want {
				t.Fatalf("%s rank %d: %d bodies sent in %d bytes, want %d bytes a body", l.name, r, m, got, l.carried)
			}
		}
	}
}

// A batch of bodies for a rank the plan leaves out stops the world with
// a *msg.UnplannedError rather than losing the bodies.
func TestExchangeRefusesAnUnplannedBatch(t *testing.T) {
	src := ic.Plummer(200, 1, 7)
	err := msg.NewWorld(2).RunErr(func(c *msg.Comm) {
		all := layoutSystem(src, (*core.System).EnableDynamics, 1)
		n := all.Len()
		in := all.Slice(c.Rank()*n/2, (c.Rank()+1)*n/2)
		var dc Decomposer
		dc.dom = GlobalDomain(c, in)
		splits := dc.search(c, in)
		dc.exchange(c, in, splits, func(src, dst int) bool { return false })
	})
	var un *msg.UnplannedError
	if !errors.As(err, &un) {
		t.Fatalf("err = %v, want an *msg.UnplannedError", err)
	}
}
