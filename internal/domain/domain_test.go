package domain

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
)

// clustered builds a globally known body set and returns rank r's
// initial (badly distributed) share.
func clustered(n int, seed int64) *core.System {
	rng := rand.New(rand.NewSource(seed))
	sys := core.New(n)
	sys.EnableDynamics()
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			sys.Pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		} else {
			// Dense clump: most of the work lives here.
			sys.Pos[i] = vec.V3{X: 0.1 + 0.02*rng.NormFloat64(), Y: 0.1 + 0.02*rng.NormFloat64(), Z: 0.1 + 0.02*rng.NormFloat64()}
		}
		sys.Mass[i] = 1
		sys.Work[i] = uint64(rng.Float64()*9) + 1 // wildly uneven work
		sys.ID[i] = int64(i)
	}
	return sys
}

func TestDecomposeBasics(t *testing.T) {
	const n = 1000
	global := clustered(n, 1)
	for _, np := range []int{1, 2, 3, 4, 8} {
		var mu sync.Mutex
		seenIDs := make(map[int64]int)
		workPerRank := make([]float64, np)
		var splits []uint64
		msg.Run(np, func(c *msg.Comm) {
			// Rank r starts with slice r (block distribution of the
			// unsorted global set).
			lo, hi := c.Rank()*n/np, (c.Rank()+1)*n/np
			local := core.New(0)
			local.EnableDynamics()
			for i := lo; i < hi; i++ {
				local.AppendFrom(global, i)
			}
			d := GlobalDomain(c, local)
			res := Decompose(c, local, d)
			mu.Lock()
			defer mu.Unlock()
			splits = res.Splits
			w := 0.0
			for i := 0; i < res.Sys.Len(); i++ {
				seenIDs[res.Sys.ID[i]]++
				w += float64(res.Sys.Work[i])
				// Contiguity: every local body within this rank's split.
				off := tree.KeyOffset(res.Sys.Key[i])
				if off < res.Splits[c.Rank()] || off >= res.Splits[c.Rank()+1] {
					t.Errorf("np=%d rank=%d: body offset %d outside [%d,%d)",
						np, c.Rank(), off, res.Splits[c.Rank()], res.Splits[c.Rank()+1])
				}
			}
			if !res.Sys.Sorted() {
				t.Errorf("np=%d rank=%d: result not sorted", np, c.Rank())
			}
			workPerRank[c.Rank()] = w
		})
		// No bodies lost or duplicated.
		if len(seenIDs) != n {
			t.Fatalf("np=%d: %d distinct ids, want %d", np, len(seenIDs), n)
		}
		for id, cnt := range seenIDs {
			if cnt != 1 {
				t.Fatalf("np=%d: id %d appears %d times", np, id, cnt)
			}
		}
		// Splits monotone.
		for r := 0; r < np; r++ {
			if splits[r] > splits[r+1] {
				t.Fatalf("np=%d: splits not monotone: %v", np, splits)
			}
		}
		// Work balance: with perfectly divisible work the max rank
		// holds at most mean + max single-body work; allow slack for
		// key-space granularity.
		if np > 1 {
			b := diag.BalanceOf(workPerRank)
			if b.Efficiency < 0.8 {
				t.Fatalf("np=%d: load balance efficiency %.3f (per-rank %v)", np, b.Efficiency, workPerRank)
			}
		}
	}
}

func TestDecomposePreservesFields(t *testing.T) {
	const n = 96
	global := clustered(n, 2)
	global.EnableVortex()
	global.EnableSPH()
	for i := 0; i < n; i++ {
		global.Vel[i] = vec.V3{X: float64(i)}
		global.Alpha[i] = vec.V3{Y: float64(i) * 2}
		global.H[i] = float64(i) + 0.5
		global.Rho[i] = float64(i) * 3
	}
	// body is what a body brings through the exchange.
	type body struct {
		Pos, Vel, Alpha vec.V3
		Mass, H, Rho    float64
		Work            uint64
	}
	var mu sync.Mutex
	got := make(map[int64]body)
	msg.Run(4, func(c *msg.Comm) {
		lo, hi := c.Rank()*n/4, (c.Rank()+1)*n/4
		local := core.New(0)
		local.EnableDynamics()
		local.EnableVortex()
		local.EnableSPH()
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}
		d := GlobalDomain(c, local)
		res := Decompose(c, local, d)
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < res.Sys.Len(); i++ {
			got[res.Sys.ID[i]] = body{
				Pos: res.Sys.Pos[i], Vel: res.Sys.Vel[i], Alpha: res.Sys.Alpha[i],
				Mass: res.Sys.Mass[i], Work: res.Sys.Work[i], H: res.Sys.H[i], Rho: res.Sys.Rho[i],
			}
		}
	})
	for i := 0; i < n; i++ {
		w, ok := got[int64(i)]
		if !ok {
			t.Fatalf("body %d lost", i)
		}
		if w.Vel != (vec.V3{X: float64(i)}) || w.Alpha != (vec.V3{Y: float64(i) * 2}) ||
			w.H != float64(i)+0.5 || w.Rho != float64(i)*3 || w.Pos != global.Pos[i] ||
			w.Mass != global.Mass[i] || w.Work != global.Work[i] {
			t.Fatalf("body %d fields corrupted: %+v", i, w)
		}
	}
}

func TestDecomposeSingleRank(t *testing.T) {
	sys := clustered(50, 3)
	msg.Run(1, func(c *msg.Comm) {
		d := GlobalDomain(c, sys)
		res := Decompose(c, sys, d)
		if res.Sys.Len() != 50 {
			t.Errorf("lost bodies: %d", res.Sys.Len())
		}
		if res.Moved != 0 {
			t.Errorf("moved %d on single rank", res.Moved)
		}
		if res.Splits[0] != 0 || res.Splits[1] != tree.EndOffset {
			t.Errorf("splits = %v", res.Splits)
		}
	})
}

func TestDecomposeEmptyRankTolerated(t *testing.T) {
	// All work on one tiny clump: some ranks may end up empty; the
	// algorithm must not deadlock or lose bodies.
	const n = 8
	global := core.New(n)
	global.EnableDynamics()
	for i := 0; i < n; i++ {
		global.Pos[i] = vec.V3{X: 0.5, Y: 0.5, Z: 0.5} // identical keys
		global.Mass[i] = 1
	}
	var mu sync.Mutex
	total := 0
	msg.Run(4, func(c *msg.Comm) {
		lo, hi := c.Rank()*n/4, (c.Rank()+1)*n/4
		local := core.New(0)
		local.EnableDynamics()
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}
		d := GlobalDomain(c, local)
		res := Decompose(c, local, d)
		mu.Lock()
		total += res.Sys.Len()
		mu.Unlock()
	})
	if total != n {
		t.Fatalf("bodies after decomposition: %d, want %d", total, n)
	}
}

func TestGlobalDomainConsistency(t *testing.T) {
	global := clustered(64, 4)
	domains := make([]vec.V3, 4)
	sizes := make([]float64, 4)
	msg.Run(4, func(c *msg.Comm) {
		lo, hi := c.Rank()*64/4, (c.Rank()+1)*64/4
		local := core.New(0)
		local.EnableDynamics()
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}
		d := GlobalDomain(c, local)
		domains[c.Rank()] = d.Origin
		sizes[c.Rank()] = d.Size
	})
	for r := 1; r < 4; r++ {
		if domains[r] != domains[0] || sizes[r] != sizes[0] {
			t.Fatalf("rank %d domain differs: %v/%v vs %v/%v", r, domains[r], sizes[r], domains[0], sizes[0])
		}
	}
	// The domain must contain every body.
	for _, p := range global.Pos {
		f := p.Sub(domains[0])
		if f.X < 0 || f.Y < 0 || f.Z < 0 || f.X >= sizes[0] || f.Y >= sizes[0] || f.Z >= sizes[0] {
			t.Fatalf("body %v outside global domain", p)
		}
	}
}
