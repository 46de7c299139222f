package msg

import (
	"testing"

	"repro/internal/trace"
)

// TryRecv must account exactly like Recv: a hit emits one trace recv
// event with the same peer/bytes a blocking Recv would, a miss emits
// nothing, and sender-side traffic is identical either way.
func TestTryRecvAccountingParity(t *testing.T) {
	recvEvents := func(poll bool) ([]trace.Event, PhaseTraffic) {
		w := NewWorld(2)
		tr := trace.NewRun(2)
		w.SetTrace(tr)
		w.Run(func(c *Comm) {
			c.Phase("x")
			if c.Rank() == 0 {
				c.Send(1, 3, "payload", 64)
				return
			}
			if poll {
				for {
					if _, ok := c.TryRecv(0, 3); ok {
						break
					}
				}
			} else {
				c.Recv(0, 3)
			}
		})
		var evs []trace.Event
		for _, ev := range tr.Rank(1).Events() {
			if ev.Kind == trace.KindRecv {
				evs = append(evs, ev)
			}
		}
		return evs, w.RankTraffic(0).Total()
	}

	blocking, trafB := recvEvents(false)
	polled, trafP := recvEvents(true)
	if len(blocking) != 1 || len(polled) != 1 {
		t.Fatalf("recv event counts: blocking=%d polled=%d, want 1 each", len(blocking), len(polled))
	}
	b, p := blocking[0], polled[0]
	if b.Peer != p.Peer || b.Bytes != p.Bytes || b.Name != p.Name {
		t.Fatalf("trace mismatch: Recv=%+v TryRecv=%+v", b, p)
	}
	if trafB != trafP {
		t.Fatalf("traffic mismatch: Recv=%+v TryRecv=%+v", trafB, trafP)
	}
}

// A missed TryRecv leaves no trace event behind.
func TestTryRecvMissEmitsNothing(t *testing.T) {
	w := NewWorld(1)
	tr := trace.NewRun(1)
	w.SetTrace(tr)
	w.Run(func(c *Comm) {
		if _, ok := c.TryRecv(0, 9); ok {
			panic("unexpected message")
		}
	})
	for _, ev := range tr.Rank(0).Events() {
		if ev.Kind == trace.KindRecv {
			t.Fatalf("miss emitted a recv event: %+v", ev)
		}
	}
}
