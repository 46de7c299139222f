package msg

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// runWithDeadline fails the test if fn does not return within d --
// the guard every containment test needs, since the bug class being
// fixed is "hangs forever".
func runWithDeadline(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("run did not complete within deadline (world hung)")
	}
}

// Regression for the PR 4 incident (treebench -procs 8): one rank
// panics mid-collective and every survivor is blocked inside
// mailbox.take on a message that will never come. Before the abort
// path, Run's wg.Wait() hung forever; now the panic must surface as a
// structured WorldError promptly.
func TestPanicMidCollectiveAborts(t *testing.T) {
	runWithDeadline(t, 10*time.Second, func() {
		w := NewWorld(8)
		err := w.RunErr(func(c *Comm) {
			for iter := 0; ; iter++ {
				if c.Rank() == 3 && iter == 5 {
					c.Phase("walk")
					panic("rank 3 exploded mid-collective")
				}
				c.Barrier()
			}
		})
		if err == nil {
			t.Fatal("expected a WorldError")
		}
		if err.Rank != 3 {
			t.Fatalf("first failing rank = %d, want 3", err.Rank)
		}
		if !strings.Contains(err.Error(), "rank 3 exploded") {
			t.Fatalf("cause lost: %v", err)
		}
		if len(err.Ranks) != 8 {
			t.Fatalf("state table has %d ranks, want 8", len(err.Ranks))
		}
		// The survivors were parked in the barrier's Recv; at least
		// some of the snapshot must show a blocked receive with the
		// phase and collective seq they reached.
		blocked := 0
		for _, s := range err.Ranks {
			if s.Blocked {
				blocked++
			}
		}
		if blocked == 0 {
			t.Fatalf("no rank recorded as blocked: %+v", err.Ranks)
		}
	})
}

// The package-level Run must re-raise the WorldError as a panic (the
// historical contract), not hang.
func TestRunPanicIsWorldError(t *testing.T) {
	runWithDeadline(t, 10*time.Second, func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("expected panic")
			}
			we, ok := p.(*WorldError)
			if !ok {
				t.Fatalf("panic value is %T, want *WorldError", p)
			}
			if we.Rank != 1 {
				t.Fatalf("rank = %d, want 1", we.Rank)
			}
		}()
		Run(4, func(c *Comm) {
			if c.Rank() == 1 {
				panic("boom")
			}
			c.Barrier() // survivors block until the abort wakes them
		})
	})
}

// Comm.Abort is the cooperative path protocol layers use: the caller
// unwinds immediately, everyone else wakes, and the given cause
// survives errors.Is/As through the WorldError.
func TestCommAbortUnwindsWorld(t *testing.T) {
	sentinel := errors.New("protocol stuck")
	runWithDeadline(t, 10*time.Second, func() {
		w := NewWorld(4)
		err := w.RunErr(func(c *Comm) {
			c.Phase("exchange")
			if c.Rank() == 2 {
				c.Abort(fmt.Errorf("giving up: %w", sentinel))
			}
			c.Recv(3, 99) // never sent: survivors depend on the abort
		})
		if err == nil {
			t.Fatal("expected a WorldError")
		}
		if err.Rank != 2 || !errors.Is(err, sentinel) {
			t.Fatalf("got %v", err)
		}
		if err.Ranks[2].Phase != "exchange" {
			t.Fatalf("rank 2 phase = %q, want exchange", err.Ranks[2].Phase)
		}
	})
}

// A clean run returns nil from RunErr and leaves Err() nil.
func TestRunErrNilOnSuccess(t *testing.T) {
	w := NewWorld(3)
	if err := w.RunErr(func(c *Comm) {
		c.Barrier()
		Allreduce(c, c.Rank(), sum[int], 4)
	}); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if w.Err() != nil {
		t.Fatalf("Err() = %v on healthy world", w.Err())
	}
}

// First failure wins: concurrent aborts from several ranks must
// produce exactly one coherent WorldError.
func TestFirstFailureWins(t *testing.T) {
	runWithDeadline(t, 10*time.Second, func() {
		w := NewWorld(6)
		err := w.RunErr(func(c *Comm) {
			c.Abort(fmt.Errorf("rank %d failing", c.Rank()))
		})
		if err == nil {
			t.Fatal("expected a WorldError")
		}
		want := fmt.Sprintf("rank %d failing", err.Rank)
		if !strings.Contains(err.Cause.Error(), want) {
			t.Fatalf("cause %q does not match first rank %d", err.Cause, err.Rank)
		}
	})
}
