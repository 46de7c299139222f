package abm

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/msg"
)

// fixed is a reply size that does not depend on the reply.
func fixed[T any](n int) func(*T) int { return func(*T) int { return n } }

func TestRoundTripAligned(t *testing.T) {
	msg.Run(4, func(c *msg.Comm) {
		e := New[int, string](c, 8, fixed[string](16), func(src int, reqs []int) []string {
			out := make([]string, len(reqs))
			for i, r := range reqs {
				out[i] = fmt.Sprintf("r%d:q%d:from%d", c.Rank(), r, src)
			}
			return out
		})
		// Every rank asks every rank (including itself) two questions.
		for d := 0; d < c.Size(); d++ {
			e.Post(d, 10*c.Rank()+d)
			e.Post(d, 100+d)
		}
		reps := e.Round()
		for d := 0; d < c.Size(); d++ {
			want0 := fmt.Sprintf("r%d:q%d:from%d", d, 10*c.Rank()+d, c.Rank())
			want1 := fmt.Sprintf("r%d:q%d:from%d", d, 100+d, c.Rank())
			if len(reps[d]) != 2 || reps[d][0] != want0 || reps[d][1] != want1 {
				t.Errorf("rank %d from %d: %v", c.Rank(), d, reps[d])
			}
		}
	})
}

func TestEmptyRound(t *testing.T) {
	// Ranks with nothing to ask must still serve.
	msg.Run(3, func(c *msg.Comm) {
		e := New[int, int](c, 8, fixed[int](8), func(src int, reqs []int) []int {
			out := make([]int, len(reqs))
			for i, r := range reqs {
				out[i] = r * r
			}
			return out
		})
		if c.Rank() == 0 {
			e.Post(1, 7)
			e.Post(2, 9)
		}
		reps := e.Round()
		if c.Rank() == 0 {
			if reps[1][0] != 49 || reps[2][0] != 81 {
				t.Errorf("replies: %v", reps)
			}
		} else {
			for _, r := range reps {
				if len(r) != 0 {
					t.Errorf("rank %d got unexpected replies %v", c.Rank(), r)
				}
			}
		}
	})
}

func TestMultiRoundConvergence(t *testing.T) {
	// Chained requests: each reply spawns a follow-up until a depth
	// limit, mimicking a tree walk fetching deeper levels.
	var mu sync.Mutex
	total := 0
	msg.Run(4, func(c *msg.Comm) {
		e := New[int, int](c, 8, fixed[int](8), func(src int, reqs []int) []int {
			out := make([]int, len(reqs))
			for i, r := range reqs {
				out[i] = r - 1
			}
			return out
		})
		depth := c.Rank() + 1 // ranks need different numbers of rounds
		e.Post((c.Rank()+1)%c.Size(), depth)
		got := 0
		for e.Vote(false) {
			reps := e.Round()
			for d := range reps {
				for _, v := range reps[d] {
					got++
					if v > 0 {
						e.Post(d, v)
					}
				}
			}
		}
		mu.Lock()
		total += got
		mu.Unlock()
	})
	// Rank r posts depth r+1, generating r+1 replies: sum 1+2+3+4.
	if total != 10 {
		t.Fatalf("total replies %d, want 10", total)
	}
}

// The vote decides, identically on every rank, whether a round runs: a
// single rank's claim of work keeps everyone going, requests or not,
// and so does a single posted request. With no posts and no claims the
// loop ends on the vote alone: zero Round calls, one collective, 2(P-1)
// messages where the empty all-to-all that used to carry the answer
// was P(P-1).
func TestVoteDecidesTermination(t *testing.T) {
	const np = 4
	w := msg.Run(np, func(c *msg.Comm) {
		e := New[int, int](c, 8, fixed[int](8), func(src int, reqs []int) []int { return make([]int, len(reqs)) })
		// Only rank 2 claims work, nobody asks.
		if !e.Vote(c.Rank() == 2) {
			t.Errorf("rank %d: loop ended although rank 2 voted to go on", c.Rank())
		}
		// Only rank 1 asks, nobody claims work.
		if c.Rank() == 1 {
			e.Post(3, 7)
		}
		if !e.Vote(false) {
			t.Errorf("rank %d: loop ended although rank 1 had posted", c.Rank())
		}
		if reps := e.Round(); (c.Rank() == 1) != (len(reps[3]) == 1) {
			t.Errorf("rank %d: replies %v after rank 1 posted", c.Rank(), reps)
		}
		// Nothing anywhere: the loop as a caller writes it.
		before := c.Collectives()
		for e.Vote(false) {
			e.Round()
		}
		if got := c.Collectives() - before; got != 1 {
			t.Errorf("rank %d: an idle loop took %d collectives, want 1", c.Rank(), got)
		}
		if e.Rounds != 1 {
			t.Errorf("rank %d: Rounds = %d, want 1 (a vote is not a round)", c.Rank(), e.Rounds)
		}
	})
	// Three votes and one round of two all-to-alls.
	if got, want := w.TotalTraffic().Msgs, uint64(3*2*(np-1)+2*np*(np-1)); got != want {
		t.Errorf("%d messages, want %d", got, want)
	}
}

func TestCounters(t *testing.T) {
	msg.Run(2, func(c *msg.Comm) {
		e := New[int, int](c, 8, fixed[int](8), func(src int, reqs []int) []int {
			return make([]int, len(reqs))
		})
		if c.Rank() == 0 {
			e.Post(1, 1)
			e.Post(1, 2)
			if !e.PendingLocal() {
				t.Error("pending should be true after Post")
			}
		}
		e.Round()
		if e.PendingLocal() {
			t.Error("pending should clear after Round")
		}
		if c.Rank() == 0 && e.Posted != 2 {
			t.Errorf("Posted = %d", e.Posted)
		}
		if c.Rank() == 1 && e.Served != 2 {
			t.Errorf("Served = %d", e.Served)
		}
		if e.Rounds != 1 {
			t.Errorf("Rounds = %d", e.Rounds)
		}
	})
}

func TestHandlerArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity violation")
		}
	}()
	msg.Run(1, func(c *msg.Comm) {
		e := New[int, int](c, 8, fixed[int](8), func(src int, reqs []int) []int {
			return nil // wrong arity
		})
		e.Post(0, 1)
		e.Round()
	})
}

// Steady-state rounds must allocate nothing: the engine recycles the
// drained posting queues, the exchange receive buffers, and the reply
// index, and the handler below reuses its own reply buffer. This pins
// the PR 5 queue-churn fix (one fresh [][]Req per round, previously).
func TestRoundZeroAllocSteadyState(t *testing.T) {
	msg.Run(1, func(c *msg.Comm) {
		var reps []int
		e := New[int, int](c, 8, fixed[int](8), func(src int, reqs []int) []int {
			reps = reps[:0]
			for _, r := range reqs {
				reps = append(reps, r*2)
			}
			return reps
		})
		// Warm up: let every recycled buffer reach its steady capacity.
		for i := 0; i < 4; i++ {
			e.Post(0, i)
			e.Post(0, i+10)
			e.Round()
		}
		allocs := testing.AllocsPerRun(100, func() {
			e.Post(0, 1)
			e.Post(0, 2)
			out := e.Round()
			if len(out[0]) != 2 || out[0][0] != 2 || out[0][1] != 4 {
				t.Fatalf("bad replies: %v", out[0])
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state Round allocates %.1f objects/round, want 0", allocs)
		}
	})
}

// The round loop of a real walk posts to many destinations; make sure
// recycling holds across multi-rank worlds too (allocation counted on
// rank 0 only, others just serve).
func TestRoundRecyclesQueuesMultiRank(t *testing.T) {
	msg.Run(4, func(c *msg.Comm) {
		e := New[int, int](c, 8, fixed[int](8), func(src int, reqs []int) []int {
			out := make([]int, len(reqs))
			for i, r := range reqs {
				out[i] = r + src
			}
			return out
		})
		for round := 0; round < 20; round++ {
			for d := 0; d < c.Size(); d++ {
				e.Post(d, round*10+d)
			}
			out := e.Round()
			for d := 0; d < c.Size(); d++ {
				if len(out[d]) != 1 || out[d][0] != round*10+d+c.Rank() {
					t.Errorf("round %d dst %d: %v", round, d, out[d])
				}
			}
		}
		if e.Rounds != 20 {
			t.Errorf("Rounds = %d", e.Rounds)
		}
	})
}

// BenchmarkRoundSteadyState is the guardrail for the queue-recycling
// fix: bytes/op must stay at zero for the engine's own machinery.
func BenchmarkRoundSteadyState(b *testing.B) {
	msg.Run(1, func(c *msg.Comm) {
		var reps []int
		e := New[int, int](c, 8, fixed[int](8), func(src int, reqs []int) []int {
			reps = reps[:0]
			for _, r := range reqs {
				reps = append(reps, r*2)
			}
			return reps
		})
		for i := 0; i < 4; i++ {
			e.Post(0, i)
			e.Round()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Post(0, i)
			e.Post(0, i+1)
			e.Round()
		}
	})
}
