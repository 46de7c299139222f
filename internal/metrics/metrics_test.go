package metrics

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/integrate"
	"repro/internal/msg"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	g := r.Gauge("y")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge holds a value")
	}
	h := r.Histogram("z")
	h.Observe(7)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram holds samples")
	}
	if r.Values() != nil || r.Snapshots() != nil {
		t.Fatal("nil registry yields data")
	}
	_ = h.Snapshot()
}

func TestRegistryStablePointers(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter pointer not stable")
	}
	r.Counter("a").Add(2)
	r.Counter("a").Add(3)
	r.Gauge("g").Set(1.5)
	vals := r.Values()
	if vals["a"] != 5 || vals["g"] != 1.5 {
		t.Fatalf("values = %v", vals)
	}
}

// within holds a quantile to the histogram's contract against the
// sample v it stands for: an upper bound, by less than one part in
// eight.
func within(t *testing.T, what string, got, v uint64) {
	t.Helper()
	if got < v || got-v > v/8 {
		t.Fatalf("%s = %d, want an upper bound of %d within 12.5%%", what, got, v)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast samples, 9 medium, 1 slow: the classic stall shape.
	for i := 0; i < 90; i++ {
		h.Observe(100)
	}
	for i := 0; i < 9; i++ {
		h.Observe(10_000)
	}
	h.Observe(1_000_000)
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	within(t, "p50", h.Quantile(0.50), 100)
	within(t, "p90 (90 of 100 samples are fast)", h.Quantile(0.90), 100)
	within(t, "p99", h.Quantile(0.99), 10_000)
	s := h.Snapshot()
	if s.Max != 1_000_000 || s.Sum != 90*100+9*10_000+1_000_000 {
		t.Fatalf("snapshot = %+v", s)
	}
	// The quantile upper bound is clamped to the observed max.
	if q := h.Quantile(1.0); q != 1_000_000 {
		t.Fatalf("p100 = %d", q)
	}

	// The bound at the bucket edges of every octave: the last value of
	// one, the first of the next, and the first of its second
	// sub-bucket; with a larger sample present so the max cannot clamp.
	// Below 16 a value is its own bucket.
	for k := 1; k < 64; k++ {
		for _, v := range []uint64{1<<k - 1, 1 << k, 1<<k + 1<<k>>3} {
			var e Histogram
			e.Observe(v)
			e.Observe(1<<64 - 1)
			got := e.Quantile(0.5)
			within(t, "edge", got, v)
			if v < 16 && got != v {
				t.Fatalf("Quantile of %d = %d, want it exact below 16", v, got)
			}
		}
		if a, b, c := histIndex(1<<k-1), histIndex(1<<k), histIndex(1<<k+1<<k>>3); a+1 != b || k >= 3 && b+1 != c {
			t.Fatalf("k=%d: 2^k-1, 2^k, 2^k+2^(k-3) in buckets %d, %d, %d, want consecutive", k, a, b, c)
		}
	}
	if i := histIndex(1<<64 - 1); i != histBuckets-1 || histUpper(i) != 1<<64-1 {
		t.Fatalf("largest sample in bucket %d of %d, upper edge %d", i, histBuckets, histUpper(i))
	}
}

// Quantile edge cases: the extremes of q, a single sample, and the
// max-clamp when the true quantile shares a bucket with the maximum.
func TestHistogramQuantileEdges(t *testing.T) {
	// Single sample: every quantile is that sample (its bucket upper
	// bound clamps to the exact observed max).
	var one Histogram
	one.Observe(700) // bucket [640,704)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := one.Quantile(q); got != 700 {
			t.Fatalf("single-sample Quantile(%g) = %d, want 700", q, got)
		}
	}

	var h Histogram
	h.Observe(3)
	h.Observe(100)
	h.Observe(1000)
	// q=0 still resolves to rank 1 (the smallest sample's bucket), not
	// a zero division or an empty answer.
	if q0 := h.Quantile(0); q0 != 3 {
		t.Fatalf("Quantile(0) = %d, want 3", q0)
	}
	// q=1 is exactly the observed max, not the bucket top (1023).
	if q1 := h.Quantile(1); q1 != 1000 {
		t.Fatalf("Quantile(1) = %d, want the exact observed max 1000", q1)
	}

	// Max-clamp inside a bucket: two samples in [512,576); p50's
	// bucket top is 575 but the observed max 530 is tighter.
	var cl Histogram
	cl.Observe(520)
	cl.Observe(530)
	if p50 := cl.Quantile(0.5); p50 != 530 {
		t.Fatalf("Quantile(0.5) = %d, want clamped to observed max 530", p50)
	}
	// ...but the clamp must not apply across buckets: with a later
	// sample in a higher bucket, p50 keeps its own bucket's bound.
	cl.Observe(600)
	if p50 := cl.Quantile(0.5); p50 != 575 {
		t.Fatalf("Quantile(0.5) = %d, want bucket top 575 (max lives in a higher bucket)", p50)
	}
}

func TestHistogramZeroAndEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Snapshot().Count != 0 {
		t.Fatal("empty histogram not zero")
	}
	h.Observe(0)
	if h.Count() != 1 || h.Quantile(0.99) != 0 {
		t.Fatal("zero sample mishandled")
	}
}

// BuildReport from records alone, no msg.World -- what the
// live-telemetry sampler hands it mid-run, and the same path the
// drivers take at exit: phases in first-start order whichever rank
// first names one, traffic and bodies totaled from the records, one
// stepping section summed over ranks, none without a scheduler.
func TestBuildReportDetachedInputs(t *testing.T) {
	sec := time.Second
	inputs := []RankInput{
		{Counters: diag.Counters{PP: 100}, Bodies: 120,
			Phases: []diag.Phase{{Name: "walk", D: 2 * sec}, {Name: "treebuild", D: sec}, {Name: "treebuild/sort", D: sec / 2}},
			Sent:   msg.PhaseTraffic{Msgs: 5, Bytes: 1000}, Collectives: 6,
			Stepping: Stepping{Mode: "block", Eta: 0.02, Stats: integrate.Stats{
				BigSteps: 2, SubSteps: 8, FullEvals: 2, PartialEvals: 6,
				ActiveSinks: 30, TotalSinks: 100, Occupancy: []uint64{7, 3}}}},
		{Counters: diag.Counters{PP: 60}, Bodies: 80,
			Phases: []diag.Phase{{Name: "decompose", D: sec}, {Name: "walk", D: 3 * sec}},
			Sent:   msg.PhaseTraffic{Msgs: 7, Bytes: 2000}, Collectives: 10,
			Stepping: Stepping{Mode: "block", Eta: 0.02, Stats: integrate.Stats{
				BigSteps: 2, SubSteps: 8, FullEvals: 2, PartialEvals: 6,
				ActiveSinks: 20, TotalSinks: 100, Occupancy: []uint64{1, 2, 5}}}},
	}
	rep := BuildReport("live", 1.0, inputs, nil, nil)
	if rep.Totals.Interactions != 160 || rep.Bodies != 200 || rep.Totals.CollectivesPerStep != 10 {
		t.Fatalf("interactions = %d, bodies = %d, collectives = %d", rep.Totals.Interactions, rep.Bodies, rep.Totals.CollectivesPerStep)
	}
	if rep.Totals.Msgs != 12 || rep.Totals.Bytes != 3000 {
		t.Fatalf("traffic not totaled: %d/%d", rep.Totals.Msgs, rep.Totals.Bytes)
	}
	if rep.Ranks[1].SentBytes != 2000 || rep.Ranks[0].PhaseSeconds["walk"] != 2 || rep.Ranks[0].PhaseSeconds["treebuild/sort"] != 0.5 {
		t.Fatalf("rank rows = %+v", rep.Ranks)
	}
	var order []string
	for _, pb := range rep.Phases {
		order = append(order, pb.Phase)
	}
	if want := []string{"walk", "treebuild", "treebuild/sort", "decompose"}; !slices.Equal(order, want) {
		t.Fatalf("phase balance order = %v, want first-start order %v", order, want)
	}
	if walk := rep.Phases[0]; walk.Max != 3 || walk.Min != 2 {
		t.Fatalf("walk balance = %+v", walk)
	}
	want := &SteppingStats{Mode: "block", Eta: 0.02, BigSteps: 2, SubSteps: 8, FullEvals: 2, PartialEvals: 6,
		ActiveSinks: 50, TotalSinks: 200, ActiveFraction: 0.25, RungOccupancy: []uint64{8, 5, 5}}
	if !reflect.DeepEqual(rep.Stepping, want) {
		t.Fatalf("stepping = %+v, want %+v", rep.Stepping, want)
	}
	if plain := BuildReport("x", 1.0, []RankInput{{}}, nil, nil); plain.Stepping != nil || plain.Phases != nil {
		t.Fatalf("a record without a scheduler or phases reports them: %+v %+v", plain.Stepping, plain.Phases)
	}
}

// The report, its rendering and its diff carry only signals a run can
// move: nothing of the request path (no walk efficiency, no request
// rounds), and the push counts once, in the counters. A report written
// with those fields still reads.
func TestReportCarriesOnlyLiveSignals(t *testing.T) {
	rep := BuildReport("x", 1.0, []RankInput{
		{Counters: diag.Counters{Traversals: 50, Pushed: 30, PushUsed: 20}, RemoteCells: 30},
		{Counters: diag.Counters{Traversals: 70, Pushed: 10, PushUsed: 10}, RemoteCells: 10},
	}, nil, nil)
	path := filepath.Join(t.TempDir(), "r.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, dead := range []string{`"walk_efficiency"`, `"rounds"`, `"Rewalked"`, `"Deferred"`, `"Requests"`, `"pushed"`, `"push_used"`, "walk_stall"} {
		if strings.Contains(string(raw), dead) {
			t.Errorf("report JSON carries %s:\n%s", dead, raw)
		}
	}
	var b strings.Builder
	rep.Render(&b)
	Diff(&b, rep, rep, 0.1)
	for _, dead := range []string{"walk_efficiency", "efficiency 1", "rewalked", "rounds"} {
		if strings.Contains(b.String(), dead) {
			t.Errorf("render or diff shows %q:\n%s", dead, b.String())
		}
	}
	if !strings.Contains(b.String(), "push: 40 cells, 30 used") {
		t.Errorf("render missing the push line:\n%s", b.String())
	}

	old := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(old, []byte(`{"schema": 1, "command": "treebench", "np": 1,
		"totals": {"counters": {"PP": 5, "Rewalked": 0, "Deferred": 0, "Requests": 0, "Pushed": 4, "PushUsed": 3},
			"walk_efficiency": 1, "push_hit_rate": 0.75},
		"ranks": [{"rank": 0, "counters": {"PP": 5, "Pushed": 4, "PushUsed": 3},
			"rounds": 0, "remote_cells": 4, "pushed": 4, "push_used": 3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(old)
	if err != nil {
		t.Fatalf("a report with the request path's fields: %v", err)
	}
	if c := got.Totals.Counters; c.PP != 5 || c.Pushed != 4 || c.PushUsed != 3 || got.Ranks[0].RemoteCells != 4 {
		t.Fatalf("read %+v", got)
	}
}

// The rendering of a walk sample shows both counts and the counted
// rate scaled by what the per-body algorithm would have counted.
func TestReportPerBodyWalkRate(t *testing.T) {
	rep := BuildReport("x", 2.0, []RankInput{{Counters: diag.Counters{PP: 1e9}}}, nil, nil)
	rep.Totals.WalkSamplePerBody, rep.Totals.WalkSampleGrouped, rep.Totals.WalkSampleBodies = 1500, 2000, 10
	if rep.Totals.FlopsRate != 19e9 {
		t.Fatalf("counted rate %g, want 1.9e10", rep.Totals.FlopsRate)
	}
	var b strings.Builder
	rep.Render(&b)
	if !strings.Contains(b.String(), "per-body walk: 150.0 interactions/body where the grouped walk counts 200.0 (sampled n=10) -> 14.25 Gflops") {
		t.Fatalf("render missing the per-body walk line:\n%s", b.String())
	}
	plain := BuildReport("x", 2.0, []RankInput{{}}, nil, nil)
	b.Reset()
	plain.Render(&b)
	if strings.Contains(b.String(), "per-body walk") {
		t.Fatalf("a report without a sample renders one:\n%s", b.String())
	}
}

// TraceDropped must surface in the rendered report as a warning.
func TestRenderWarnsOnDroppedTraceEvents(t *testing.T) {
	rep := BuildReport("x", 1.0, []RankInput{{}}, nil, nil)
	rep.TraceDropped = 42
	var b strings.Builder
	rep.Render(&b)
	if !strings.Contains(b.String(), "42 trace events dropped") {
		t.Fatalf("render missing drop warning:\n%s", b.String())
	}
}

// Concurrent updates must be race-free and lose nothing; run under
// -race.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("h")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
				h.Observe(uint64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d h=%d", c.Value(), h.Count())
	}
	if h.Snapshot().Max != 7999 {
		t.Fatalf("max = %d", h.Snapshot().Max)
	}
}
