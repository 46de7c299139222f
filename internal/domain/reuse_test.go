package domain

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/tree"
)

// The splits-reuse fast path of partial evaluations: when few bodies
// drifted out of order, a Reuse decomposer keeps the previous splits
// (one allreduce, no prefix sums, no splitter search) while still
// exchanging strays -- so ownership stays exactly consistent with the
// splits. Heavy drift must fall back to the full search on every rank.
func TestDecomposerSplitsReuse(t *testing.T) {
	const n, np = 1200, 4
	global := clustered(n, 7)
	type step struct {
		splits []uint64
		stats  Stats
	}
	// One world, three decompositions per rank: cold-ish first pass,
	// tiny drift with Reuse on, violent drift with Reuse still on.
	steps := make([]step, 3)
	inBounds := true
	var mu sync.Mutex
	msg.Run(np, func(c *msg.Comm) {
		local := core.New(0)
		local.EnableDynamics()
		lo, hi := c.Rank()*n/np, (c.Rank()+1)*n/np
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}
		dec := &Decomposer{Reuse: true}
		for s := 0; s < 3; s++ {
			switch s {
			case 1:
				jitter(2e-5)(local, s) // tiny: almost nobody changes order
			case 2:
				jitter(0.8)(local, s) // violent: most keys change
			}
			res := dec.Decompose(c, local, GlobalDomain(c, local))
			local = res.Sys
			ok := true
			for i := 0; i < local.Len(); i++ {
				off := tree.KeyOffset(local.Key[i])
				if off < res.Splits[c.Rank()] || off >= res.Splits[c.Rank()+1] {
					ok = false
				}
			}
			mu.Lock()
			if c.Rank() == 0 {
				steps[s] = step{splits: append([]uint64(nil), res.Splits...), stats: dec.Last}
			}
			if !ok {
				inBounds = false
			}
			mu.Unlock()
		}
	})
	if !inBounds {
		t.Fatal("a rank holds a body outside its split interval; reuse broke ownership")
	}
	if steps[0].stats.SplitsReused {
		t.Fatalf("first decomposition reused splits it never computed: %+v", steps[0].stats)
	}
	if !steps[1].stats.SplitsReused {
		t.Fatalf("tiny drift did not engage the reuse fast path: displaced fraction %g, stats %+v",
			steps[1].stats.DisplacedFrac, steps[1].stats)
	}
	if steps[1].stats.DisplacedFrac > DefaultReuseThreshold {
		t.Fatalf("reuse engaged above the threshold: %g > %g", steps[1].stats.DisplacedFrac, DefaultReuseThreshold)
	}
	for i := range steps[0].splits {
		if steps[1].splits[i] != steps[0].splits[i] {
			t.Fatalf("reused splits[%d] = %d differs from the previous %d", i, steps[1].splits[i], steps[0].splits[i])
		}
	}
	if steps[2].stats.SplitsReused {
		t.Fatalf("violent drift (displaced fraction %g) still reused splits", steps[2].stats.DisplacedFrac)
	}
	if steps[2].stats.DisplacedFrac <= DefaultReuseThreshold {
		t.Fatalf("violent drift displaced only %g of bodies; fallback path untested", steps[2].stats.DisplacedFrac)
	}
}

// Reused splits must be byte-identical across every rank's view: the
// reuse decision is a collective, so a world where ranks disagreed
// would deadlock or corrupt the exchange. This exercises the decision
// at several rank counts including one (where reuse is trivial).
func TestDecomposerReuseCollectiveAgreement(t *testing.T) {
	const n = 900
	global := clustered(n, 11)
	for _, np := range []int{1, 2, 8} {
		splits := make([][]uint64, np)
		reused := make([]bool, np)
		var mu sync.Mutex
		msg.Run(np, func(c *msg.Comm) {
			local := core.New(0)
			local.EnableDynamics()
			lo, hi := c.Rank()*n/np, (c.Rank()+1)*n/np
			for i := lo; i < hi; i++ {
				local.AppendFrom(global, i)
			}
			dec := &Decomposer{Reuse: true}
			var res Result
			for s := 0; s < 2; s++ {
				if s == 1 {
					jitter(2e-5)(local, s)
				}
				res = dec.Decompose(c, local, GlobalDomain(c, local))
				local = res.Sys
			}
			mu.Lock()
			splits[c.Rank()] = append([]uint64(nil), res.Splits...)
			reused[c.Rank()] = dec.Last.SplitsReused
			mu.Unlock()
		})
		for r := 1; r < np; r++ {
			if reused[r] != reused[0] {
				t.Fatalf("np=%d: rank %d reuse decision %v disagrees with rank 0's %v", np, r, reused[r], reused[0])
			}
			for i := range splits[0] {
				if splits[r][i] != splits[0][i] {
					t.Fatalf("np=%d: rank %d splits[%d] = %d, rank 0 has %d", np, r, i, splits[r][i], splits[0][i])
				}
			}
		}
		if !reused[0] {
			t.Fatalf("np=%d: tiny drift did not engage reuse", np)
		}
	}
}
