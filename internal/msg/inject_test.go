package msg

import (
	"errors"
	"io"
	"testing"
	"time"
)

// chaosRun executes one crash-injected run and reports its outcome.
// Only rank 2 ever enters the "walk" phase, so with CrashPhase="walk"
// the failing rank is pinned and the crash point depends only on the
// seeded draw sequence.
func chaosRun(seed uint64) (*WorldError, InjectorStats) {
	w := NewWorld(4)
	inj := &Injector{Seed: seed, CrashProb: 0.05, CrashPhase: "walk"}
	w.SetInjector(inj)
	err := w.RunErr(func(c *Comm) {
		c.Phase("build")
		for i := 0; i < 40; i++ {
			c.Barrier()
		}
		if c.Rank() == 2 {
			c.Phase("walk")
		}
		for i := 0; i < 200; i++ {
			c.Barrier()
		}
	})
	return err, inj.Stats()
}

// Same seed, same config => same crash: same rank, same phase, and
// the same number of completed collectives on the crashed rank. This
// is the property that makes a chaos failure replayable.
func TestInjectorCrashDeterministic(t *testing.T) {
	runWithDeadline(t, 20*time.Second, func() {
		err1, st1 := chaosRun(42)
		err2, st2 := chaosRun(42)
		if err1 == nil || err2 == nil {
			t.Fatalf("expected both runs to crash: %v / %v", err1, err2)
		}
		var c1, c2 *InjectedCrash
		if !errors.As(err1, &c1) || !errors.As(err2, &c2) {
			t.Fatalf("causes are %v / %v, want *InjectedCrash", err1.Cause, err2.Cause)
		}
		if *c1 != *c2 {
			t.Fatalf("crash schedule diverged: %+v vs %+v", c1, c2)
		}
		if c1.Rank != 2 || c1.Phase != "walk" {
			t.Fatalf("crash = %+v, want rank 2 in walk", c1)
		}
		if s1, s2 := err1.Ranks[2].Seq, err2.Ranks[2].Seq; s1 != s2 {
			t.Fatalf("crash point diverged: seq %d vs %d", s1, s2)
		}
		if st1 != st2 {
			t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
		}
		if st1.Crashes != 1 {
			t.Fatalf("crashes = %d, want 1", st1.Crashes)
		}
	})
}

// Different seeds should crash at different points; verify the seed
// actually feeds the schedule (three seeds, so a chance collision of
// one pair cannot fail the test).
func TestInjectorSeedChangesSchedule(t *testing.T) {
	runWithDeadline(t, 30*time.Second, func() {
		seqs := make(map[int]bool)
		for _, seed := range []uint64{1, 7, 13} {
			err, _ := chaosRun(seed)
			if err == nil {
				t.Skipf("seed %d produced no crash in this window", seed)
			}
			seqs[err.Ranks[2].Seq] = true
		}
		if len(seqs) == 1 {
			t.Fatal("three seeds all crashed at the same collective seq (seed ignored?)")
		}
	})
}

// Latency-only injection perturbs timing but not results: the run
// completes cleanly and the collectives still compute the right
// values.
func TestInjectorLatencyHarmless(t *testing.T) {
	runWithDeadline(t, 30*time.Second, func() {
		w := NewWorld(4)
		inj := &Injector{Seed: 3, LatencyProb: 0.5, MaxLatency: 50 * time.Microsecond}
		w.SetInjector(inj)
		err := w.RunErr(func(c *Comm) {
			for i := 0; i < 25; i++ {
				if got := Allreduce(c, c.Rank()+i, sum[int], 4); got != 6+4*i {
					panic("allreduce result corrupted")
				}
			}
		})
		if err != nil {
			t.Fatalf("latency-only run aborted: %v", err)
		}
		if st := inj.Stats(); st.Delays == 0 {
			t.Fatal("no delays injected at LatencyProb=0.5")
		}
	})
}

// Injected reorder is bounded: with every send reordered and the
// receiver draining only after all messages queue up, no message may
// land more than one slot from its FIFO position.
func TestInjectorReorderBounded(t *testing.T) {
	const n = 100
	runWithDeadline(t, 10*time.Second, func() {
		w := NewWorld(2)
		inj := &Injector{Seed: 5, ReorderProb: 1}
		w.SetInjector(inj)
		var order []int
		err := w.RunErr(func(c *Comm) {
			if c.Rank() == 0 {
				for i := 0; i < n; i++ {
					c.Send(1, 7, i, 4)
				}
				c.Send(1, 8, nil, 0) // "all queued" marker
				return
			}
			c.Recv(0, 8) // tag-8 marker arrives last: the tag-7 burst is fully queued
			for i := 0; i < n; i++ {
				order = append(order, c.Recv(0, 7).Data.(int))
			}
		})
		if err != nil {
			t.Fatalf("reorder run aborted: %v", err)
		}
		seen := make(map[int]bool, n)
		moved := 0
		for pos, v := range order {
			if seen[v] {
				t.Fatalf("value %d delivered twice", v)
			}
			seen[v] = true
			if d := pos - v; d < -1 || d > 1 {
				t.Fatalf("message %d displaced %d slots (pos %d)", v, d, pos)
			} else if d != 0 {
				moved++
			}
		}
		if len(seen) != n {
			t.Fatalf("lost messages: got %d of %d", len(seen), n)
		}
		if moved == 0 {
			t.Fatal("ReorderProb=1 but every message arrived in FIFO order")
		}
		if st := inj.Stats(); st.Reorders == 0 {
			t.Fatal("stats recorded no reorders")
		}
	})
}

// A message still in flight holds back the rest of its (src, tag)
// stream: a later message of the stream, already due, is not delivered
// ahead of it, while another stream's message is.
func TestInFlightHoldsBackItsStream(t *testing.T) {
	w := NewWorld(2)
	due := time.Now().Add(200 * time.Millisecond)
	box := w.boxes[1]
	box.put(Message{Src: 0, Tag: 7, Data: 1, due: due}, false)
	box.put(Message{Src: 0, Tag: 7, Data: 2}, false)
	box.put(Message{Src: 0, Tag: 8, Data: 3}, false)
	err := w.RunErr(func(c *Comm) {
		if c.Rank() != 1 {
			return
		}
		if m := c.Recv(0, 8); m.Data.(int) != 3 {
			t.Errorf("tag 8 delivered %v, want 3", m.Data)
		}
		if !time.Now().Before(due) {
			t.Error("another stream's message waited for the in-flight one")
		}
		for want := 1; want <= 2; want++ {
			if m := c.Recv(0, 7); m.Data.(int) != want {
				t.Errorf("tag 7 delivered %v, want %d", m.Data, want)
			}
		}
		if time.Now().Before(due) {
			t.Error("in-flight message delivered before its deadline")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// An injected stall is watchdog bait: the stalled rank goes quiet,
// the watchdog declares the stall, and the stalled rank's 30s park is
// cut short by the abort (the whole test runs in well under a
// second).
func TestInjectorStallTripsWatchdog(t *testing.T) {
	runWithDeadline(t, 10*time.Second, func() {
		w := NewWorld(2)
		inj := &Injector{Seed: 11, StallProb: 1, StallDur: 30 * time.Second}
		w.SetInjector(inj)
		w.StartWatchdog(WatchdogConfig{Quiet: 150 * time.Millisecond, Out: &syncBuffer{}})
		start := time.Now()
		err := w.RunErr(func(c *Comm) {
			for i := 0; i < 100; i++ {
				c.Barrier()
			}
		})
		if err == nil {
			t.Fatal("expected the watchdog to abort the stalled world")
		}
		var stall *StallError
		if !errors.As(err, &stall) {
			t.Fatalf("cause is %v, want *StallError", err.Cause)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("abort took %v; the injected 30s stall was not cut short", elapsed)
		}
		if st := inj.Stats(); st.Stalls != 1 {
			t.Fatalf("stalls = %d, want 1", st.Stalls)
		}
	})
}

// Regression for the lost wake-up in mailbox.take: the in-flight
// timer's callback used to Broadcast without holding the mailbox lock,
// so a timer armed with d <= 0 could fire between the scan that found
// nothing due and cond.Wait registering the waiter; the broadcast was
// lost, nothing else would ever wake that rank, and the whole world
// parked. Short latencies on every message make d <= 0 common: at the
// old code this world lasted a few hundred collectives.
func TestLatencyTimerWakeupNotLost(t *testing.T) {
	w := NewWorld(4)
	w.SetInjector(&Injector{Seed: 11, LatencyProb: 1, MaxLatency: 200 * time.Microsecond})
	w.StartWatchdog(WatchdogConfig{Quiet: 3 * time.Second, Out: io.Discard})
	err := w.RunErr(func(c *Comm) {
		for i := 0; i < 2000; i++ {
			if got := Allreduce(c, c.Rank()+i, sum[int], 4); got != 6+4*i {
				panic("allreduce result corrupted")
			}
		}
	})
	if err != nil {
		t.Fatalf("world hung or aborted under short injected latencies: %v", err)
	}
}
