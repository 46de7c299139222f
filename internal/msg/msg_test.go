package msg

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestSendRecvBasic(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, "hello", 5)
		} else {
			m := c.Recv(0, 7)
			if m.Data.(string) != "hello" || m.Src != 0 || m.Tag != 7 || m.Bytes != 5 {
				t.Errorf("bad message: %+v", m)
			}
		}
	})
}

func TestRecvTagMatching(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, "first", 0)
			c.Send(1, 2, "second", 0)
		} else {
			// Receive out of order by tag.
			if m := c.Recv(0, 2); m.Data.(string) != "second" {
				t.Error("tag 2 mismatched")
			}
			if m := c.Recv(0, 1); m.Data.(string) != "first" {
				t.Error("tag 1 mismatched")
			}
		}
	})
}

func TestFIFOPerSourceTag(t *testing.T) {
	Run(2, func(c *Comm) {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, i, 4)
			}
		} else {
			for i := 0; i < n; i++ {
				if got := c.Recv(0, 3).Data.(int); got != i {
					t.Errorf("out of order: got %d want %d", got, i)
				}
			}
		}
	})
}

func TestBarrier(t *testing.T) {
	for _, np := range []int{1, 2, 3, 4, 7, 8, 16} {
		var phase int32
		Run(np, func(c *Comm) {
			for iter := 0; iter < 5; iter++ {
				atomic.AddInt32(&phase, 1)
				c.Barrier()
				if v := atomic.LoadInt32(&phase); int(v) != np*(iter+1) {
					t.Errorf("np=%d iter=%d: rank passed barrier at phase %d, want %d", np, iter, v, np*(iter+1))
				}
				c.Barrier()
			}
		})
	}
}

func TestBcast(t *testing.T) {
	for _, np := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < np; root += 3 {
			Run(np, func(c *Comm) {
				x := -1
				if c.Rank() == root {
					x = 12345
				}
				got := Bcast(c, root, x, 4)
				if got != 12345 {
					t.Errorf("np=%d root=%d rank=%d: Bcast = %d", np, root, c.Rank(), got)
				}
			})
		}
	}
}

func TestReduceAllreduce(t *testing.T) {
	for _, np := range []int{1, 2, 4, 6, 9} {
		want := int64(np * (np - 1) / 2)
		Run(np, func(c *Comm) {
			got := Reduce(c, 0, int64(c.Rank()), sum[int64], 8)
			if c.Rank() == 0 && got != want {
				t.Errorf("np=%d: Reduce = %d want %d", np, got, want)
			}
			all := Allreduce(c, int64(c.Rank()), sum[int64], 8)
			if all != want {
				t.Errorf("np=%d rank=%d: Allreduce = %d want %d", np, c.Rank(), all, want)
			}
		})
	}
}

func TestGatherAllgather(t *testing.T) {
	Run(5, func(c *Comm) {
		g := Gather(c, 2, c.Rank()*10, 4)
		if c.Rank() == 2 {
			for r, v := range g {
				if v != r*10 {
					t.Errorf("Gather[%d] = %d", r, v)
				}
			}
		} else if g != nil {
			t.Error("non-root gather should be nil")
		}
		ag := Allgather(c, c.Rank()+100, 4)
		for r, v := range ag {
			if v != r+100 {
				t.Errorf("Allgather[%d] = %d on rank %d", r, v, c.Rank())
			}
		}
	})
}

// Allgather contributions may differ in size (branch cells, splitter
// samples): the gather leg carries each rank's own bytes, the
// broadcast leg the gathered total on every hop of the binomial tree.
func TestAllgatherAccountsVariableSizes(t *testing.T) {
	lens := []int{1, 10, 100, 1000}
	total := uint64(0)
	for _, n := range lens {
		total += uint64(8 * n)
	}
	w := Run(4, func(c *Comm) {
		mine := make([]float64, lens[c.Rank()])
		all := Allgather(c, mine, 8*len(mine))
		for r, v := range all {
			if len(v) != lens[r] {
				t.Errorf("rank %d: Allgather[%d] has %d elements, want %d", c.Rank(), r, len(v), lens[r])
			}
		}
	})
	// Binomial tree from rank 0 at P=4: 0 -> 1, 0 -> 2, 2 -> 3.
	want := []PhaseTraffic{
		{Msgs: 2, Bytes: 2 * total},
		{Msgs: 1, Bytes: 8 * 10},
		{Msgs: 2, Bytes: 8*100 + total},
		{Msgs: 1, Bytes: 8 * 1000},
	}
	for r := range want {
		if got := w.RankTraffic(r).Total(); got != want[r] {
			t.Errorf("rank %d sent %+v, want %+v", r, got, want[r])
		}
	}
}

func TestAlltoallv(t *testing.T) {
	np := 4
	Run(np, func(c *Comm) {
		send := make([][]int, np)
		for d := 0; d < np; d++ {
			// rank r sends [r, d, r+d] to d
			send[d] = []int{c.Rank(), d, c.Rank() + d}
		}
		recv := Alltoallv(c, send, 8)
		for s := 0; s < np; s++ {
			want := []int{s, c.Rank(), s + c.Rank()}
			if len(recv[s]) != 3 {
				t.Fatalf("recv[%d] len %d", s, len(recv[s]))
			}
			for i := range want {
				if recv[s][i] != want[i] {
					t.Errorf("rank %d recv[%d] = %v want %v", c.Rank(), s, recv[s], want)
				}
			}
		}
	})
}

// The all-to-all counts each item at its own size (a leaf record
// carries its bodies) and reuses the receive buffer it is handed.
func TestAlltoall(t *testing.T) {
	const np = 4
	w := Run(np, func(c *Comm) {
		send := make([][]int, np)
		var recv [][]int
		for round := 0; round < 2; round++ {
			for d := range send {
				send[d] = []int{100*round + 10*c.Rank() + d}
			}
			got := AlltoallvFunc(c, send, recv, func(v *int) int { return *v % 10 }, nil, nil)
			if round == 1 && &got[0] != &recv[0] {
				t.Errorf("rank %d: receive buffer not reused", c.Rank())
			}
			recv = got
			for s, v := range recv {
				if len(v) != 1 || v[0] != 100*round+10*s+c.Rank() {
					t.Errorf("rank %d round %d: recv[%d] = %v", c.Rank(), round, s, v)
				}
			}
		}
	})
	for r := 0; r < np; r++ {
		// Two rounds of one message to each peer d, d bytes each.
		want := PhaseTraffic{Msgs: 2 * (np - 1), Bytes: uint64(2 * (0 + 1 + 2 + 3 - r))}
		if got := w.RankTraffic(r).Total(); got != want {
			t.Errorf("rank %d sent %+v, want %+v", r, got, want)
		}
	}
}

// sum is the reduction of the integer collectives' tests.
func sum[T int | int64](a, b T) T { return a + b }

func TestAlltoallvEmptySlices(t *testing.T) {
	Run(3, func(c *Comm) {
		send := make([][]int, 3)
		recv := Alltoallv(c, send, 8)
		for s := range recv {
			if len(recv[s]) != 0 {
				t.Errorf("expected empty, got %v", recv[s])
			}
		}
	})
}

func TestTrafficCounting(t *testing.T) {
	w := Run(2, func(c *Comm) {
		c.Phase("alpha")
		if c.Rank() == 0 {
			c.Send(1, 1, nil, 100)
			c.Send(1, 2, nil, 50)
			c.Phase("beta")
			c.Send(1, 3, nil, 7)
		} else {
			c.Recv(0, 1)
			c.Recv(0, 2)
			c.Recv(0, 3)
		}
	})
	tr := w.RankTraffic(0)
	if a := tr.Phases["alpha"]; a == nil || a.Msgs != 2 || a.Bytes != 150 {
		t.Fatalf("alpha traffic = %+v", tr.Phases["alpha"])
	}
	if b := tr.Phases["beta"]; b == nil || b.Msgs != 1 || b.Bytes != 7 {
		t.Fatalf("beta traffic = %+v", tr.Phases["beta"])
	}
	if tot := w.TotalTraffic(); tot.Bytes != 157 || tot.Msgs != 3 {
		t.Fatalf("total = %+v", tot)
	}
	if m := w.MaxRankTraffic(); m.Bytes != 157 {
		t.Fatalf("max = %+v", m)
	}
	// Receiving rank sent nothing.
	if tot := w.RankTraffic(1).Total(); tot.Msgs != 0 {
		t.Fatalf("rank 1 traffic = %+v", tot)
	}
}

func TestCommMatrix(t *testing.T) {
	w := Run(3, func(c *Comm) {
		c.Phase("p")
		switch c.Rank() {
		case 0:
			c.Send(1, 1, nil, 10)
			c.Send(2, 1, nil, 20)
			c.Send(2, 1, nil, 30)
		case 1:
			c.Recv(0, 1)
			c.Send(0, 2, nil, 5)
		case 2:
			c.Recv(0, 1)
			c.Recv(0, 1)
		}
		if c.Rank() == 0 {
			c.Recv(1, 2)
		}
	})
	msgs, bytes := w.CommMatrix()
	wantMsgs := [][]uint64{{0, 1, 2}, {1, 0, 0}, {0, 0, 0}}
	wantBytes := [][]uint64{{0, 10, 50}, {5, 0, 0}, {0, 0, 0}}
	for s := 0; s < 3; s++ {
		for d := 0; d < 3; d++ {
			if msgs[s][d] != wantMsgs[s][d] || bytes[s][d] != wantBytes[s][d] {
				t.Fatalf("matrix[%d][%d] = (%d, %d), want (%d, %d)",
					s, d, msgs[s][d], bytes[s][d], wantMsgs[s][d], wantBytes[s][d])
			}
		}
		// Row sums agree with the per-rank totals.
		var rm, rb uint64
		for d := 0; d < 3; d++ {
			rm, rb = rm+msgs[s][d], rb+bytes[s][d]
		}
		if tot := w.RankTraffic(s).Total(); rm != tot.Msgs || rb != tot.Bytes {
			t.Fatalf("rank %d row sum (%d, %d) != total %+v", s, rm, rb, tot)
		}
	}
}

// With a trace attached, every send and receive (point-to-point and
// collective) lands on the acting rank's timeline, and send byte
// sums match the traffic record.
func TestWorldTraceEvents(t *testing.T) {
	tr := trace.NewRun(2)
	w := NewWorld(2)
	w.SetTrace(tr)
	w.Run(func(c *Comm) {
		c.Phase("p")
		if c.Rank() == 0 {
			c.Send(1, 1, nil, 64)
		} else {
			c.Recv(0, 1)
		}
		c.Barrier()
	})
	for r := 0; r < 2; r++ {
		var sent, recvd uint64
		for _, ev := range tr.Rank(r).Events() {
			switch ev.Kind {
			case trace.KindSend:
				sent += uint64(ev.Bytes)
			case trace.KindRecv:
				recvd++
			}
		}
		if sent != w.RankTraffic(r).Total().Bytes {
			t.Fatalf("rank %d traced %d sent bytes, traffic says %d",
				r, sent, w.RankTraffic(r).Total().Bytes)
		}
		if recvd == 0 {
			t.Fatalf("rank %d traced no receives (barrier must show)", r)
		}
	}
	// A mismatched trace size is a programming error.
	defer func() {
		if recover() == nil {
			t.Fatal("SetTrace with wrong size did not panic")
		}
	}()
	NewWorld(3).SetTrace(tr)
}

// Property: Allreduce of random vectors matches serial sum for random
// world sizes.
func TestAllreduceMatchesSerialProperty(t *testing.T) {
	f := func(vals []int64, npRaw uint8) bool {
		np := int(npRaw)%7 + 1
		if len(vals) < np {
			return true
		}
		vals = vals[:np]
		var want int64
		for _, v := range vals {
			want += v
		}
		ok := true
		Run(np, func(c *Comm) {
			got := Allreduce(c, vals[c.Rank()], sum[int64], 8)
			if got != want {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic on a rank should propagate")
		}
	}()
	Run(2, func(c *Comm) {
		if c.Rank() == 1 {
			panic("rank 1 exploded")
		}
	})
}

func TestWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) should panic")
		}
	}()
	NewWorld(0)
}

func BenchmarkPingPong(b *testing.B) {
	Run(2, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.Send(1, 1, i, 8)
				c.Recv(1, 2)
			} else {
				c.Recv(0, 1)
				c.Send(0, 2, i, 8)
			}
		}
	})
}

func BenchmarkAllreduce16(b *testing.B) {
	Run(16, func(c *Comm) {
		for i := 0; i < b.N; i++ {
			Allreduce(c, float64(c.Rank()), SumF64, 8)
		}
	})
}

// Stress: random mixtures of point-to-point traffic and collectives
// across ranks must neither deadlock nor misdeliver. Each rank sends a
// deterministic pseudo-random pattern; every message carries a
// checksum of (src, dst, seq) that the receiver verifies.
func TestRandomTrafficStress(t *testing.T) {
	const np = 6
	const msgs = 200
	Run(np, func(c *Comm) {
		// Deterministic per-rank schedule.
		x := uint64(c.Rank()*2654435761 + 12345)
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x >> 33
		}
		type payload struct{ Src, Seq, Sum uint64 }
		counts := make([]int, np) // messages I will send to each rank
		for i := 0; i < msgs; i++ {
			dst := int(next()) % np
			counts[dst]++
		}
		// Everyone learns how many to expect from everyone.
		expect := make([][]int, np)
		for r := 0; r < np; r++ {
			expect[r] = Bcast(c, r, counts, 8*np)
		}
		// Re-run the schedule, actually sending.
		x = uint64(c.Rank()*2654435761 + 12345)
		sent := make([]uint64, np)
		for i := 0; i < msgs; i++ {
			dst := int(next()) % np
			p := payload{Src: uint64(c.Rank()), Seq: sent[dst], Sum: uint64(c.Rank())*1000003 + sent[dst]}
			c.Send(dst, 77, p, 24)
			sent[dst]++
			if i%17 == 0 {
				c.Barrier() // interleave collectives with p2p
			}
		}
		// Receive everything owed to me, in per-source order.
		for src := 0; src < np; src++ {
			for k := 0; k < expect[src][c.Rank()]; k++ {
				m := c.Recv(src, 77)
				p := m.Data.(payload)
				if p.Src != uint64(src) || p.Seq != uint64(k) || p.Sum != uint64(src)*1000003+uint64(k) {
					t.Errorf("corrupted delivery from %d: %+v (want seq %d)", src, p, k)
				}
			}
		}
		c.Barrier()
	})
}
