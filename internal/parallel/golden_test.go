package parallel

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/hotengine"
	"repro/internal/ic"
	"repro/internal/msg"
)

// TestWalkCountsMatchRestartWalk pins what the distributed walk must
// leave exactly as the restart-from-root walk has it (the reference,
// hotengine.RestartWalkGroups, follows the same grouping): a change
// that alters which cells are opened moves a count. The completed-walk
// visits and the interactions stood from the commit before suspended
// walks (PR 12, be27d9e) until the walk group became a sink cell of up
// to 64 bodies (PR 23), which moved them on purpose, once -- fewer,
// longer lists over the same source tree:
//   - np=2: traversals 83981 -> 31125, pp 854395 -> 1008737, pc 198721
//     -> 168395 (interactions 1053116 -> 1177132, +11.8% at N = 1200);
//     imports 316, msgs 18 and bytes 116231 unchanged.
//   - np=8: traversals 99133 -> 53619, pp 808784 -> 927076, pc 224867 ->
//     203261; imports 2049 -> 2058 (a larger sphere opens nine more
//     remote cells), bytes 609384 -> 610446, msgs 210 unchanged.
//
// A single rank has nothing to wait for, so it rewalks nothing.
//
// Requests, deferrals, rounds, imported cells, msgs and bytes were
// re-captured when the owners began to push the locally essential cells
// before the walk (PR 18): nothing is asked for, so nothing is deferred,
// rewalked or answered in rounds.
//   - np=2: requests 316 -> 0, deferred 1198 -> 0, rounds 5 -> 0, the
//     same 316 cells imported. msgs 36 -> 20: five rounds of two
//     all-to-alls and the closing one (22 messages) became the bound
//     allgather, the push and the closing exchange (6). bytes 118598 ->
//     116231: -2528 of request keys, -10 of round flags, +171 of bounds.
//   - np=8: requests 2160 -> 0, deferred 1143 -> 0, rounds 4 -> 0, msgs
//     644 -> 266. Imports 2160 -> 2049: a remote leaf branch is now
//     tested on the top tree's copy of its moments and fetched only to be
//     opened, which saves more cells than the conservative test adds.
//     bytes 636437 -> 609426: -17280 of keys, -224 of flags, +3591 of
//     bounds, -13098 for the 111 cell records of 118 bytes.
//
// msgs and bytes alone had been re-captured before, when the step shed its
// per-bit collectives (np=2 from 166 msgs / 116620 bytes, np=8 from
// 1498 / 601437). Three parts: Allgather now accounts its broadcast
// leg at the gathered total rather than own size x P, which only the
// branch exchange felt (np=2 -826 bytes, np=8 -8968); the splitter
// search is 4 collectives instead of 64 allreduces (np=2 -120 msgs
// +2840 bytes, np=8 -840 msgs +43968 bytes: fewer, larger messages);
// and the walk's termination vote rides on the request batches, one
// closing all-to-all replacing an allreduce per round (np=2 -10 msgs
// -36 bytes, np=8 -14 msgs and +-0 bytes).
//
// msgs and bytes once more when a step went from ten collectives to six
// (PR 22); interactions, imports and rounds did not move. This is a
// first evaluation, so the splitter search is the cold one and costs
// what it did. Per collective:
//   - bound allgather, gone: the bounds ride on the branch allgather.
//     np=2 -2 msgs, np=8 -14 msgs; +-0 bytes (the same 57 B per rank on
//     the gather leg and 57 x np on each broadcast hop, under another tag).
//   - closing all-to-all of empty batches -> one allreduce of a byte:
//     np=2 2 -> 2 msgs, np=8 56 -> 14 msgs (-42) and as many bytes.
//
// np=2 20 -> 18 msgs, bytes unchanged; np=8 266 -> 210 msgs, 609426 ->
// 609384 bytes.
//
// Every count but msgs and rounds once more when keys.DomainOf snapped
// the key domain to a lattice and a ladder of sizes (a cube up to 5%
// larger than the bounding box, its corner up to span/128 below it), so
// that a warm step can check the domain instead of reducing the box.
// The tree's cells moved, not the walk: the restart walk moved with it.
// This is a first evaluation, so the box is still allreduced and the
// messages are those of before; the bytes moved with the cells.
//   - np=2: traversals 31125 -> 32319, pp 1008737 -> 996186, pc 168395
//     -> 175746 (interactions 1177132 -> 1171932, -0.4%), imports 316 ->
//     327, bytes 116231 -> 118301.
//   - np=8: traversals 53619 -> 53934, pp 927076 -> 922164, pc 203261 ->
//     208812 (interactions 1130337 -> 1130976, +0.06%), imports 2058 ->
//     2137, bytes 610446 -> 619583.
//
// msgs and bytes alone once more when a pushed walk phase stopped ending
// on a vote: the one-byte allreduce is gone, 2(np-1) messages of a byte.
// np=2 18 -> 16 msgs, 118301 -> 118299 bytes; np=8 210 -> 196 msgs,
// 619583 -> 619569 bytes.
//
// bytes alone once more when a pushed or reply leaf record began to
// count the bodies it carries (32 bytes each: a position and a mass),
// not just the cell: np=2 118299 -> 156667 (1 199 bodies), np=8 619569
// -> 882225 (8 208 bodies); and again when the body exchange began to
// send the columns a body carries (core.System.Carried: 72 bytes a body
// with dynamics) instead of a 113-byte record: np=2 156667 -> 131493,
// np=8 882225 -> 839667.
func TestWalkCountsMatchRestartWalk(t *testing.T) {
	const n = 1200
	golden := []struct {
		np                               int
		trav, pp, pc, requests, deferred uint64
		rounds, remote                   int
		msgs, bytes                      uint64
	}{
		{np: 1},
		{np: 2, trav: 32319, pp: 996186, pc: 175746, remote: 327, msgs: 16, bytes: 131493},
		{np: 8, trav: 53934, pp: 922164, pc: 208812, remote: 2137, msgs: 196, bytes: 839667},
	}
	for _, want := range golden {
		np := want.np
		var sum diag.Counters
		var park hotengine.ParkCounters
		rounds := make([]int, np)
		remote := 0
		var mu sync.Mutex
		w := msg.NewWorld(np)
		w.Run(func(c *msg.Comm) {
			global := ic.Plummer(n, 1.0, 17)
			local := core.New(0)
			local.EnableDynamics()
			for i := c.Rank() * n / np; i < (c.Rank()+1)*n/np; i++ {
				local.AppendFrom(global, i)
			}
			e := New(c, local, Config{MAC: grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true}, Eps2: 1e-6})
			e.ComputeForces()
			// The splitter search is 4 collectives at any np > 1, and
			// the rank's report says so.
			wantSplit := 4
			if np == 1 {
				wantSplit = 0
			}
			if got, rep := e.DecomposeStats().Rounds, e.Record().SplitRounds; got != wantSplit || rep != got {
				t.Errorf("np=%d rank %d: splitter search took %d collectives (report says %d), want %d",
					np, c.Rank(), got, rep, wantSplit)
			}
			mu.Lock()
			defer mu.Unlock()
			sum.Add(e.Counters)
			park.Rewalked += e.Park.Rewalked
			park.Deferred += e.Park.Deferred
			park.Requests += e.Park.Requests
			rounds[c.Rank()] = e.Rounds
			remote += e.RemoteCells
		})
		if np == 1 {
			if park.Rewalked != 0 || park.Deferred != 0 || sum.Traversals == 0 {
				t.Errorf("np=1: rewalked %d, deferred %d, traversals %d; a single rank must complete every walk at once",
					park.Rewalked, park.Deferred, sum.Traversals)
			}
			continue
		}
		tot := w.TotalTraffic()
		if sum.Traversals != want.trav || sum.PP != want.pp || sum.PC != want.pc ||
			park.Requests != want.requests || park.Deferred != want.deferred {
			t.Errorf("np=%d: traversals %d pp %d pc %d requests %d deferred %d, want %d %d %d %d %d", np,
				sum.Traversals, sum.PP, sum.PC, park.Requests, park.Deferred,
				want.trav, want.pp, want.pc, want.requests, want.deferred)
		}
		for r, got := range rounds {
			if got != want.rounds {
				t.Errorf("np=%d rank %d: %d request rounds, want %d", np, r, got, want.rounds)
			}
		}
		if remote != want.remote || tot.Msgs != want.msgs || tot.Bytes != want.bytes {
			t.Errorf("np=%d: %d imported cells, %d msgs, %d bytes, want %d %d %d", np,
				remote, tot.Msgs, tot.Bytes, want.remote, want.msgs, want.bytes)
		}
		if park.Rewalked != 0 || sum.PushUsed == 0 || sum.PushUsed > sum.Pushed || sum.Pushed != uint64(remote) {
			t.Errorf("np=%d: %d visits rewalked, %d of %d pushed cells used, %d imported; want every import pushed and none rewalked",
				np, park.Rewalked, sum.PushUsed, sum.Pushed, remote)
		}
	}
}
