package msg

import (
	"errors"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// planOf is round i's plan on np ranks: a pseudo-random third of the
// pairs, from (i, src, dst) alone, so every rank computes the same one;
// every fifth round plans nothing at all.
func planOf(i int) Pairs {
	return func(src, dst int) bool {
		if i%5 == 4 {
			return false
		}
		h := uint64(i+1)*0x9e3779b97f4a7c15 ^ uint64(src)*0xbf58476d1ce4e5b9 ^ uint64(dst)*0x94d049bb133111eb
		h ^= h >> 29
		return h%3 == 0
	}
}

// batchesFor is what rank src holds for every rank in round i under
// plan: 1+src+dst items for a planned destination (and for itself), none
// for the others.
func batchesFor(i, src, np int, plan Pairs) [][]int {
	out := make([][]int, np)
	for d := range out {
		if d != src && plan != nil && !plan(src, d) {
			continue
		}
		for k := 0; k < 1+src+d; k++ {
			out[d] = append(out[d], 1000*i+100*src+d)
		}
	}
	return out
}

// checkRecv holds what rank dst received in round i to what the plan
// says its sources sent: their batches from the planned ones and from
// itself, nil from the others.
func checkRecv(t *testing.T, i, dst int, plan Pairs, recv [][]int) {
	t.Helper()
	for s, got := range recv {
		var want []int
		if s == dst || plan == nil || plan(s, dst) {
			want = batchesFor(i, s, len(recv), plan)[dst]
		}
		if !slices.Equal(got, want) {
			t.Errorf("round %d rank %d: from rank %d got %v, want %v", i, dst, s, got, want)
		}
	}
}

// The sparse all-to-all sends exactly the planned messages: the comm
// matrix and each rank's traffic total count those and nothing else, a
// rank receives its planned sources' batches and nil from the rest, and
// a plan of no pairs sends nothing yet is still one collective.
func TestSparseAlltoallvCountsOnlyPlannedMessages(t *testing.T) {
	const np, bytesPer = 4, 8
	for i := 0; i < 10; i++ {
		plan := planOf(i)
		colls := make([]uint64, np)
		w := NewWorld(np)
		w.StartWatchdog(WatchdogConfig{Quiet: time.Second, Out: io.Discard})
		if err := w.RunErr(func(c *Comm) {
			recv := AlltoallvFunc(c, batchesFor(i, c.Rank(), np, plan), nil, bytesPer, plan, nil)
			checkRecv(t, i, c.Rank(), plan, recv)
			colls[c.Rank()] = c.Collectives()
		}); err != nil {
			t.Fatalf("round %d: world aborted: %v", i, err)
		}
		msgs, bytes := w.CommMatrix()
		var total uint64
		for s := 0; s < np; s++ {
			var sent PhaseTraffic
			for d := 0; d < np; d++ {
				var wantMsgs, wantBytes uint64
				if s != d && plan(s, d) {
					wantMsgs, wantBytes = 1, uint64(bytesPer*(1+s+d))
					sent.Msgs++
					sent.Bytes += wantBytes
				}
				if msgs[s][d] != wantMsgs || bytes[s][d] != wantBytes {
					t.Errorf("round %d: %d -> %d carried %d msgs, %d bytes; want %d, %d", i, s, d, msgs[s][d], bytes[s][d], wantMsgs, wantBytes)
				}
			}
			if got := w.RankTraffic(s).Total(); got != sent {
				t.Errorf("round %d rank %d: traffic total %+v, want %+v", i, s, got, sent)
			}
			if colls[s] != 1 {
				t.Errorf("round %d rank %d: %d collectives, want 1", i, s, colls[s])
			}
			total += sent.Msgs
		}
		if got := w.TotalTraffic().Msgs; got != total {
			t.Errorf("round %d: world traffic %d msgs, want %d", i, got, total)
		}
	}
}

// Sparse, dense and tree-shaped collectives interleaved, round after
// round, with messages delayed and reordered in flight: every result is
// what it must be, so no collective's tag was taken by another's
// message, however few messages a sparse one sends.
func TestSparseExchangeKeepsTagsInStep(t *testing.T) {
	const np, rounds = 5, 30
	runWithDeadline(t, 60*time.Second, func() {
		w := NewWorld(np)
		w.SetInjector(&Injector{Seed: 7, LatencyProb: 0.3, MaxLatency: 2 * time.Millisecond, ReorderProb: 0.3})
		w.StartWatchdog(WatchdogConfig{Quiet: 5 * time.Second, Out: io.Discard})
		err := w.RunErr(func(c *Comm) {
			me := c.Rank()
			var recv [][]int
			for i := 0; i < rounds; i++ {
				plan := planOf(i)
				recv = AlltoallvFunc(c, batchesFor(i, me, np, plan), recv, 8, plan, nil)
				checkRecv(t, i, me, plan, recv)
				if got := Allreduce(c, me+i, SumI, 8); got != np*(np-1)/2+np*i {
					t.Errorf("round %d rank %d: allreduce %d", i, me, got)
				}
				dense := Alltoallv(c, batchesFor(i, me, np, nil), 8)
				checkRecv(t, i, me, nil, dense)
				if got := Bcast(c, i%np, 10*i+i%np, 8); got != 10*i+i%np {
					t.Errorf("round %d rank %d: bcast %d", i, me, got)
				}
				c.Barrier()
				all := Allgather(c, me*i, 8)
				for r, v := range all {
					if v != r*i {
						t.Errorf("round %d rank %d: allgather[%d] = %d", i, me, r, v)
					}
				}
				vals := Alltoall(c, []int{me, me, me, me, me}, nil, func(int) int { return 8 })
				for s, v := range vals {
					if v != s {
						t.Errorf("round %d rank %d: alltoall from %d = %d", i, me, s, v)
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("world aborted: %v", err)
		}
	})
}

// Under injected latency a rank waits for its planned sources alone:
// one that waited on a source the plan does not send from would wait
// forever, and the watchdog would abort the world. Eighty rounds of
// sparse exchanges, a fifth of them planning nothing, run to the end,
// with some messages delayed.
func TestSparseExchangeWaitsOnlyForPlannedMessages(t *testing.T) {
	const np, rounds = 4, 80
	inj := &Injector{Seed: 3, LatencyProb: 0.25, MaxLatency: 5 * time.Millisecond}
	runWithDeadline(t, 60*time.Second, func() {
		w := NewWorld(np)
		w.SetInjector(inj)
		w.StartWatchdog(WatchdogConfig{Quiet: 2 * time.Second, Out: io.Discard})
		var mu sync.Mutex
		landed := 0
		err := w.RunErr(func(c *Comm) {
			for i := 0; i < rounds; i++ {
				plan := planOf(i)
				AlltoallvFunc(c, batchesFor(i, c.Rank(), np, plan), nil, 8, plan, func(src int, b []int) {
					if src != c.Rank() && b != nil {
						mu.Lock()
						landed++
						mu.Unlock()
					}
				})
			}
		})
		if err != nil {
			t.Fatalf("world aborted: %v", err)
		}
		if w.TotalTraffic().Msgs != uint64(landed) || landed == 0 || inj.Stats().Delays == 0 {
			t.Fatalf("%d messages sent, %d landed, %d delayed: want every sent one landed, and some delayed", w.TotalTraffic().Msgs, landed, inj.Stats().Delays)
		}
	})
}

// A rank that holds items for a peer its plan does not send to aborts
// the world with a structured *UnplannedError naming the pair, rather
// than drop them; the others unwind instead of waiting.
func TestSparseExchangeRefusesAnUnplannedBatch(t *testing.T) {
	runWithDeadline(t, 10*time.Second, func() {
		err := NewWorld(3).RunErr(func(c *Comm) {
			plan := func(src, dst int) bool { return src != 2 || dst != 0 }
			send := batchesFor(0, c.Rank(), 3, nil) // rank 2 holds 3 items for rank 0
			AlltoallvFunc(c, send, nil, 8, plan, nil)
		})
		var un *UnplannedError
		if err == nil || !errors.As(err, &un) {
			t.Fatalf("err = %v, want an *UnplannedError", err)
		}
		if err.Rank != 2 || *un != (UnplannedError{Src: 2, Dst: 0, Items: 3}) {
			t.Fatalf("aborted by rank %d with %+v, want rank 2 holding 3 items for rank 0", err.Rank, *un)
		}
		if !strings.HasPrefix(err.Error(), "msg: world aborted by rank 2: msg: rank 2 holds 3 items for rank 0") {
			t.Fatalf("error reads %q", err.Error())
		}
	})
}
