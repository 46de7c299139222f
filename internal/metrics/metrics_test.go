package metrics

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/diag"
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
	if r.Values() != nil || r.Snapshots() != nil || r.Names() != nil {
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
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "g" {
		t.Fatalf("names = %v", names)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast samples, 9 medium, 1 slow: the classic stall shape.
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket [64,128)
	}
	for i := 0; i < 9; i++ {
		h.Observe(10_000)
	}
	h.Observe(1_000_000)
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if p50 := h.Quantile(0.50); p50 < 100 || p50 >= 128 {
		t.Fatalf("p50 = %d, want in [100,128)", p50)
	}
	if p90 := h.Quantile(0.90); p90 < 100 || p90 >= 128 {
		t.Fatalf("p90 = %d (90 of 100 samples are fast)", p90)
	}
	if p99 := h.Quantile(0.99); p99 < 10_000 || p99 >= 16_384 {
		t.Fatalf("p99 = %d, want in [10000,16384)", p99)
	}
	s := h.Snapshot()
	if s.Max != 1_000_000 || s.Sum != 90*100+9*10_000+1_000_000 {
		t.Fatalf("snapshot = %+v", s)
	}
	// The quantile upper bound is clamped to the observed max.
	if q := h.Quantile(1.0); q != 1_000_000 {
		t.Fatalf("p100 = %d", q)
	}
}

// Quantile edge cases: the extremes of q, a single sample, and the
// max-clamp when the true quantile shares a bucket with the maximum.
func TestHistogramQuantileEdges(t *testing.T) {
	// Single sample: every quantile is that sample (its bucket upper
	// bound clamps to the exact observed max).
	var one Histogram
	one.Observe(700) // bucket [512,1024)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := one.Quantile(q); got != 700 {
			t.Fatalf("single-sample Quantile(%g) = %d, want 700", q, got)
		}
	}

	var h Histogram
	h.Observe(3) // bucket [2,4)
	h.Observe(100)
	h.Observe(1000)
	// q=0 still resolves to rank 1 (the smallest sample's bucket), not
	// a zero division or an empty answer.
	if q0 := h.Quantile(0); q0 != 3 {
		t.Fatalf("Quantile(0) = %d, want 3 (bucket [2,4) clamps to max-in-bucket... observed 3)", q0)
	}
	// q=1 is exactly the observed max, not the bucket top (1023).
	if q1 := h.Quantile(1); q1 != 1000 {
		t.Fatalf("Quantile(1) = %d, want the exact observed max 1000", q1)
	}

	// Max-clamp inside a bucket: two samples in [512,1024); p50's
	// bucket top is 1023 but the observed max 600 is tighter.
	var cl Histogram
	cl.Observe(520)
	cl.Observe(600)
	if p50 := cl.Quantile(0.5); p50 != 600 {
		t.Fatalf("Quantile(0.5) = %d, want clamped to observed max 600", p50)
	}
	// ...but the clamp must not apply across buckets: with a later
	// sample in a higher bucket, p50 keeps its own bucket's bound.
	cl.Observe(5000)
	if p50 := cl.Quantile(0.5); p50 != 1023 {
		t.Fatalf("Quantile(0.5) = %d, want bucket top 1023 (max lives in a higher bucket)", p50)
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

// The detached RankInput path: PhaseSeconds instead of live timers,
// SentMsgs/SentBytes instead of a msg.World -- what the live-telemetry
// sampler feeds BuildReport mid-run.
func TestBuildReportDetachedInputs(t *testing.T) {
	inputs := []RankInput{
		{Counters: diag.Counters{PP: 100},
			PhaseSeconds: map[string]float64{"walk": 2, "treebuild": 1},
			SentMsgs:     5, SentBytes: 1000},
		{Counters: diag.Counters{PP: 60},
			PhaseSeconds: map[string]float64{"walk": 3},
			SentMsgs:     7, SentBytes: 2000},
	}
	rep := BuildReport("live", 200, 1.0, inputs, nil, nil)
	if rep.Totals.Interactions != 160 {
		t.Fatalf("interactions = %d", rep.Totals.Interactions)
	}
	if rep.Totals.Msgs != 12 || rep.Totals.Bytes != 3000 {
		t.Fatalf("detached traffic not totaled: %d/%d", rep.Totals.Msgs, rep.Totals.Bytes)
	}
	if rep.Ranks[1].SentBytes != 2000 || rep.Ranks[0].PhaseSeconds["walk"] != 2 {
		t.Fatalf("rank rows = %+v", rep.Ranks)
	}
	var walk *PhaseBalance
	for i := range rep.Phases {
		if rep.Phases[i].Phase == "walk" {
			walk = &rep.Phases[i]
		}
	}
	if walk == nil || walk.Max != 3 {
		t.Fatalf("phase balance from detached seconds = %+v", rep.Phases)
	}
}

// The report carries the walk efficiency next to the counters it is
// made of, and the rendering shows it.
func TestReportWalkEfficiency(t *testing.T) {
	rep := BuildReport("x", 10, 1.0, []RankInput{
		{Counters: diag.Counters{Traversals: 50, Rewalked: 30}},
		{Counters: diag.Counters{Traversals: 70, Rewalked: 10}},
	}, nil, nil)
	if rep.Totals.Counters.Traversals != 120 || rep.Totals.WalkEfficiency != 0.75 {
		t.Fatalf("totals = %+v, want 120 traversals at efficiency 0.75", rep.Totals)
	}
	var b strings.Builder
	rep.Render(&b)
	if !strings.Contains(b.String(), "40 rewalked (efficiency 0.750)") {
		t.Fatalf("render missing the walk line:\n%s", b.String())
	}
}

// The rendering of a walk sample shows both counts and the counted
// rate scaled by what the per-body algorithm would have counted.
func TestReportPerBodyWalkRate(t *testing.T) {
	rep := BuildReport("x", 10, 2.0, []RankInput{{Counters: diag.Counters{PP: 1e9}}}, nil, nil)
	rep.Totals.WalkSamplePerBody, rep.Totals.WalkSampleGrouped, rep.Totals.WalkSampleBodies = 1500, 2000, 10
	if rep.Totals.FlopsRate != 19e9 {
		t.Fatalf("counted rate %g, want 1.9e10", rep.Totals.FlopsRate)
	}
	var b strings.Builder
	rep.Render(&b)
	if !strings.Contains(b.String(), "per-body walk: 150.0 interactions/body where the grouped walk counts 200.0 (sampled n=10) -> 14.25 Gflops") {
		t.Fatalf("render missing the per-body walk line:\n%s", b.String())
	}
	plain := BuildReport("x", 10, 2.0, []RankInput{{}}, nil, nil)
	b.Reset()
	plain.Render(&b)
	if strings.Contains(b.String(), "per-body walk") {
		t.Fatalf("a report without a sample renders one:\n%s", b.String())
	}
}

// TraceDropped must surface in the rendered report as a warning.
func TestRenderWarnsOnDroppedTraceEvents(t *testing.T) {
	rep := BuildReport("x", 10, 1.0, []RankInput{{}}, nil, nil)
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
