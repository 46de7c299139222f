package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	t0 := tr.Now()
	if t0 != 0 {
		t.Fatalf("nil Now = %d", t0)
	}
	tr.Span("x", t0)
	tr.SpanAt("x", time.Now(), time.Second)
	tr.Instant("x")
	tr.Send("p", 1, 10)
	tr.Recv("p", 1, 10)
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer recorded something")
	}
	var r *Run
	if r.Rank(0) != nil || r.Size() != 0 || r.Events() != nil || r.Dropped() != 0 {
		t.Fatal("nil run is not inert")
	}
}

func TestSpanAndCommEvents(t *testing.T) {
	r := NewRun(2)
	tr := r.Rank(1)
	t0 := tr.Now()
	tr.Span("walk", t0)
	tr.Send("branches", 0, 118)
	tr.Recv("branches", 0, 118)
	tr.Instant("stall")
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Kind != KindSpan || evs[0].Name != "walk" || evs[0].Rank != 1 {
		t.Fatalf("span event: %+v", evs[0])
	}
	if evs[1].Kind != KindSend || evs[1].Peer != 0 || evs[1].Bytes != 118 {
		t.Fatalf("send event: %+v", evs[1])
	}
	if evs[2].Kind != KindRecv || evs[2].Peer != 0 {
		t.Fatalf("recv event: %+v", evs[2])
	}
	all := r.Events()
	if len(all) != 4 {
		t.Fatalf("run events: %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Start < all[i-1].Start {
			t.Fatal("run events not time-ordered")
		}
	}
}

func TestRingKeepsNewestAndCountsDrops(t *testing.T) {
	r := NewRunCapacity(1, 4)
	tr := r.Rank(0)
	for i := 0; i < 10; i++ {
		tr.emit(Event{Name: "e", Kind: KindInstant, Start: int64(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d", len(evs))
	}
	// Oldest-first, and only the newest four survive.
	for i, ev := range evs {
		if ev.Start != int64(6+i) {
			t.Fatalf("event %d has Start %d", i, ev.Start)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
}

// Concurrent emission into one rank's ring (the rank's own spans while
// MarkAll or the watchdog stamps it) must be race-free; run under -race.
func TestConcurrentEmit(t *testing.T) {
	r := NewRunCapacity(1, 128)
	tr := r.Rank(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				t0 := tr.Now()
				tr.Span("busy", t0)
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Events()); got != 128 {
		t.Fatalf("ring holds %d", got)
	}
	if tr.Dropped() != 800-128 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	r := NewRun(2)
	tr := r.Rank(0)
	t0 := tr.Now()
	tr.Span(`wa"lk`, t0)
	tr.Send("branches", 1, 142)
	r.Rank(1).Instant("note")
	r.Rank(1).Span("busy", 0)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	// 2 metadata records per rank + 4 events.
	if len(evs) != 2*2+4 {
		t.Fatalf("got %d records", len(evs))
	}
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev["ph"].(string)]++
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("record without pid: %v", ev)
		}
	}
	if kinds["M"] != 4 || kinds["X"] != 2 || kinds["i"] != 2 {
		t.Fatalf("record kinds: %v", kinds)
	}
}

func TestMarkAllStampsEveryRank(t *testing.T) {
	r := NewRun(3)
	r.MarkAll("watchdog.stall")
	seen := map[int]bool{}
	for _, ev := range r.Events() {
		if ev.Kind == KindInstant && ev.Name == "watchdog.stall" {
			seen[ev.Rank] = true
		}
	}
	if len(seen) != 3 {
		t.Fatalf("MarkAll hit %d of 3 ranks: %v", len(seen), seen)
	}
	// Nil-safety: a traceless run must tolerate the watchdog marking.
	var nilRun *Run
	nilRun.MarkAll("watchdog.stall")
}
