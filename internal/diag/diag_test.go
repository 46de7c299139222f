package diag

import (
	"strings"
	"testing"
	"time"
)

func TestCountersFlops(t *testing.T) {
	c := Counters{PP: 10, PC: 5}
	if c.Interactions() != 15 {
		t.Fatalf("Interactions = %d", c.Interactions())
	}
	if c.Flops() != 15*38 {
		t.Fatalf("Flops = %d", c.Flops())
	}
	c.QuadPC = 5
	if c.Flops() != 15*38+5*70 {
		t.Fatalf("Flops with quad = %d", c.Flops())
	}
	c2 := Counters{VortexPP: 2, SPHPairs: 3}
	if c2.Flops() != 2*FlopsPerVortexInteract+3*FlopsPerSPHPair {
		t.Fatalf("app kernel flops = %d", c2.Flops())
	}
}

// The executed bytes follow the kernel path, rows shared by the 8, 4 or
// 1 targets of a block; the executed flops do not, since every path
// runs the same float32 arithmetic, reciprocal square root included.
func TestExecutedAccountingByPath(t *testing.T) {
	c := Counters{PP: 10, PC: 6, QuadPC: 4, VortexPP: 1}
	const flops = 16*33 + 4*34
	if got := c.ExecutedGravityFlops(); got != flops {
		t.Errorf("executed gravity flops %d, want %d", got, flops)
	}
	if got := c.ExecutedFlops(); got != flops+FlopsPerVortexInteract {
		t.Errorf("executed flops %d, want %d", got, flops+FlopsPerVortexInteract)
	}
	for _, tc := range []struct {
		lanes int
		bytes uint64
	}{
		{1, 16*16 + 4*24},
		{4, (16*16 + 4*24) / 4},
		{8, (16*16 + 4*24) / 8},
	} {
		if got := c.KernelBytes(tc.lanes); got != tc.bytes {
			t.Errorf("lanes %d: kernel bytes %d, want %d", tc.lanes, got, tc.bytes)
		}
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{PP: 1, PC: 2, QuadPC: 3, CellsBuilt: 4, Traversals: 5, VortexPP: 8, SPHPairs: 9, Pushed: 10, PushUsed: 7}
	b := a
	a.Add(b)
	if a.PP != 2 || a.PC != 4 || a.QuadPC != 6 || a.CellsBuilt != 8 || a.Traversals != 10 ||
		a.VortexPP != 16 || a.SPHPairs != 18 || a.Pushed != 20 || a.PushUsed != 14 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if d := a.Sub(b); d != b {
		t.Fatalf("Sub wrong: %+v, want %+v", d, b)
	}
}

func TestTimer(t *testing.T) {
	tm := NewTimer()
	tm.Start("build")
	time.Sleep(2 * time.Millisecond)
	tm.Start("walk") // implicitly stops build
	time.Sleep(2 * time.Millisecond)
	tm.Stop()
	if tm.Get("build") <= 0 || tm.Get("walk") <= 0 {
		t.Fatal("phases not recorded")
	}
	// Banked is every phase in first-start order, build first.
	b := tm.Banked()
	if len(b) != 2 || b[0] != (Phase{"build", tm.Get("build")}) || b[1] != (Phase{"walk", tm.Get("walk")}) {
		t.Fatalf("Banked = %v, want build then walk with their times", b)
	}
	tm.Start("build") // an open phase is not banked until it stops
	if again := tm.Banked(); again[0] != b[0] {
		t.Fatalf("Banked counts the open phase: %v, was %v", again, b)
	}
	tm.Stop()
	// Stopping when already stopped is a no-op.
	tm.Stop()
}

func TestBalanceOf(t *testing.T) {
	b := BalanceOf([]float64{1, 2, 3, 10})
	if b.Min != 1 || b.Max != 10 || b.Mean != 4 {
		t.Fatalf("balance = %+v", b)
	}
	// Even-length median is the midpoint average, not the
	// upper-middle element (regression: used to report 3 here).
	if b.Median != 2.5 {
		t.Fatalf("even-length median = %v, want 2.5", b.Median)
	}
	if b.Efficiency != 0.4 {
		t.Fatalf("efficiency = %v", b.Efficiency)
	}
	if got := BalanceOf(nil); got != (Balance{}) {
		t.Fatalf("empty balance = %+v", got)
	}
	perfect := BalanceOf([]float64{5, 5, 5})
	if perfect.Efficiency != 1 {
		t.Fatalf("perfect efficiency = %v", perfect.Efficiency)
	}
	// Odd-length median is the middle element, unsorted input.
	odd := BalanceOf([]float64{9, 1, 4})
	if odd.Median != 4 {
		t.Fatalf("odd-length median = %v, want 4", odd.Median)
	}
	two := BalanceOf([]float64{2, 4})
	if two.Median != 3 {
		t.Fatalf("two-element median = %v, want 3", two.Median)
	}
}

// Start while a phase is running must close the previous phase: its
// time is banked, it appears exactly once in first-start order, and
// the Sink sees the closed interval before the new phase begins.
func TestTimerStartClosesPrevious(t *testing.T) {
	tm := NewTimer()
	type closed struct {
		phase string
		start time.Time
		d     time.Duration
	}
	var sunk []closed
	tm.Sink = func(phase string, start time.Time, d time.Duration) {
		sunk = append(sunk, closed{phase, start, d})
	}

	tm.Start("build")
	time.Sleep(time.Millisecond)
	tm.Start("walk") // must close "build" with nonzero duration
	if got := tm.Get("build"); got <= 0 {
		t.Fatalf("build not closed by Start: %v", got)
	}
	if len(sunk) != 1 || sunk[0].phase != "build" || sunk[0].d != tm.Get("build") {
		t.Fatalf("sink after implicit close: %+v", sunk)
	}
	time.Sleep(time.Millisecond)
	tm.Start("build") // resume: accumulates, no duplicate in order
	tm.Stop()
	if len(sunk) != 3 {
		t.Fatalf("sink saw %d intervals, want 3", len(sunk))
	}
	if got := tm.Phases(); len(got) != 2 || got[0] != "build" || got[1] != "walk" {
		t.Fatalf("phases = %v", got)
	}
	// The sink intervals tile without overlap: each starts no earlier
	// than the previous one ended.
	for i := 1; i < len(sunk); i++ {
		if sunk[i].start.Before(sunk[i-1].start.Add(sunk[i-1].d)) {
			t.Fatalf("sink intervals overlap: %+v", sunk)
		}
	}
	if tm.Get("build") != sunk[0].d+sunk[2].d {
		t.Fatalf("accumulated build %v != sunk sum %v", tm.Get("build"), sunk[0].d+sunk[2].d)
	}
}

func TestRate(t *testing.T) {
	cases := []struct {
		flops uint64
		sec   float64
		want  string
	}{
		{38_000_000, 1, "38.00 Mflops"},
		{431_000_000_000, 1, "431.00 Gflops"},
		{2_000_000_000_000, 1, "2.00 Tflops"},
		{500, 1, "500 flops"},
	}
	for _, c := range cases {
		if got := Rate(c.flops, c.sec); got != c.want {
			t.Errorf("Rate(%d, %g) = %q, want %q", c.flops, c.sec, got, c.want)
		}
	}
	if Rate(1, 0) != "inf" {
		t.Error("zero-time rate should be inf")
	}
}

func TestStacksListsGoroutines(t *testing.T) {
	out := Stacks()
	if !strings.Contains(string(out), "goroutine") {
		t.Fatalf("stack dump looks empty: %q", string(out[:min(len(out), 80)]))
	}
	if !strings.Contains(string(out), "TestStacksListsGoroutines") {
		t.Fatal("dump does not include the calling goroutine")
	}
}
