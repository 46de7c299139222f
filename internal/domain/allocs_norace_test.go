//go:build !race

package domain

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/msg"
)

// Both splitter searches run on the Decomposer's own scratch: windows,
// samples, candidates and probe vectors are reused and the reductions
// accumulate in place, so what is left per call is the result slice
// and what the message layer spends per collective (a boxed payload
// per send, the gather's result slice). Counted over the whole
// 4-rank world, since a rank's vector is reduced on another rank. The
// rest of Decompose hands a freshly allocated system to its caller by
// contract and is not measured here.
func TestDecomposeSteadyStateAllocs(t *testing.T) {
	// Full search: 4 collectives x 6 sends, 2 gather results, 4 split
	// slices. One-allgather search: 6 sends, 1 gather result, 4 split
	// slices.
	t.Run("full", func(t *testing.T) { searchAllocs(t, false, 32) })
	t.Run("one-allgather", func(t *testing.T) { searchAllocs(t, true, 12) })
}

func searchAllocs(t *testing.T, warm bool, most float64) {
	const n, np, calls = 4000, 4, 50
	global := clustered(n, 3)
	if warm {
		// Slabs of the sorted order are what an exchange leaves behind.
		global.AssignKeys(keys.NewDomain(global.Pos))
		global.SortByKey()
	}
	var perCall float64
	msg.Run(np, func(c *msg.Comm) {
		local := core.New(0)
		for i := c.Rank() * n / np; i < (c.Rank()+1)*n/np; i++ {
			local.AppendFrom(global, i)
		}
		local.AssignKeys(GlobalDomain(c, local))
		local.SortByKey()
		pw := prefixWork(local.Work)
		var dc Decomposer
		if warm {
			dc.warm = np
		}
		for i := 0; i < 3; i++ { // size the scratch and the mailboxes
			dc.selectSplits(c, local.Key, pw, np)
		}
		var before, after runtime.MemStats
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		for i := 0; i < calls; i++ {
			dc.selectSplits(c, local.Key, pw, np)
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			perCall = float64(after.Mallocs-before.Mallocs) / calls
		}
	})
	if perCall > most {
		t.Fatalf("splitter search allocates %.1f objects per call across %d ranks, want <= %g", perCall, np, most)
	}
	t.Logf("%.1f allocs per search across %d ranks", perCall, np)
}
