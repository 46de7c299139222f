package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestQuickWorkloads runs every workload at quick scale, untraced and
// traced, on two seeds, and holds the output to the contract: exactly
// the named metrics, each finite with a unit, nothing failed, the
// force-error ceiling kept, trace files written and loadable.
func TestQuickWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range workloads(true) {
		for i, trace := range []bool{false, true} {
			o := opts{seed: []int64{42, 7}[i], seconds: 1, trace: trace, quick: true, fixedOps: 3, setups: 1, traceDir: dir}
			out, err := run(wl, o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl.name, trace, err)
			}
			for _, p := range out.problems {
				t.Errorf("%s trace=%t: failed check: %s", wl.name, trace, p)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			line, err := report(io.Discard, wl, o, out, defs)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl.name, trace, err)
			}
			var res resultLine
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("%s: result line does not parse: %v", wl.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", wl.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics printed, %d defined", wl.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", wl.name, d.name)
				case m.Unit != d.unit || m.Unit == "":
					t.Errorf("%s: metric %s has unit %q, want %q", wl.name, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is not finite", wl.name, d.name)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %g, must be positive", wl.name, d.name, m.Value)
				}
			}
			if trace && wl.sim != nil {
				if fe := out.values["parallel.force_err_p99"]; !(fe > 0 && fe <= forceErrCeiling) {
					t.Errorf("%s: force_err_p99 = %g, want in (0, %g]", wl.name, fe, forceErrCeiling)
				}
			}
			if trace {
				data, err := os.ReadFile(filepath.Join(dir, wl.name+".trace.json"))
				var tr struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err != nil || json.Unmarshal(data, &tr) != nil || len(tr.TraceEvents) == 0 {
					t.Errorf("%s: trace file missing, unparseable or empty (%v)", wl.name, err)
				}
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the code to one
// vocabulary: same workloads, same metric names and units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	wls := workloads(false)
	if len(b.Workloads) != len(wls) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code %d", len(b.Workloads), len(wls))
	}
	for i, w := range wls {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q (why %q), the code %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name)
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, g.Name, g.Unit, d.name, d.unit)
			}
			if !nameRE.MatchString(g.Name) || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s %s: bad name or direction %q", kind, g.Name, g.Better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestSelfTimes: a span's self time is its duration minus what its
// direct children cover, overlaps counted once, children clipped to
// the parent.
func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "step", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "walk", Start: at(10), End: at(60)},
		{ID: 3, Parent: 1, Name: "build", Start: at(50), End: at(70)},  // overlaps walk by 10
		{ID: 4, Parent: 1, Name: "build", Start: at(90), End: at(120)}, // 20 past the parent's end
		{ID: 5, Parent: 2, Name: "eval", Start: at(20), End: at(50)},
	}
	want := map[string]time.Duration{"step": at(30), "walk": at(20), "build": at(50), "eval": at(30)}
	got := selfTimes(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

// TestPercentileRule: nearest-rank percentiles, and a tail percentile
// is trusted only with at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[len(vals)-1-i] = float64(i + 1)
	}
	if got := percentile(vals, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := median(vals); got != 500 {
		t.Errorf("median of 1..1000 = %g, want 500", got)
	}
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 10, true}, {999, 0.99, 9, false}, {160, 0.90, 16, true},
		{100, 0.90, 10, true}, {99, 0.90, 9, false}, {30, 0.50, 15, true}, {0, 0.5, 0, false},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond || trusted(c.n, c.p) != c.ok {
			t.Errorf("n=%d p=%g: %d beyond (trusted %t), want %d (%t)", c.n, c.p, got, trusted(c.n, c.p), c.beyond, c.ok)
		}
	}
}
