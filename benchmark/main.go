// Command benchmark is the repo's end-to-end and per-layer benchmark.
// It generates one workload from a seed, drives the program only
// through public functions and the service's HTTP wire, times it from
// outside, checks the outputs, and prints every metric by name with
// its unit; the last line of standard output is the machine-readable
// result. See README.md for the protocol and the metric tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's whole vocabulary; BENCHMARK.json repeats them with
// direction and bound, and main_test.go holds the two in agreement.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. An operation is one
// timestep on the sim workloads and one job on serve-mix.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_wall_ms", "ms"},
	{"op_cpu_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced run's report. A layer that is not on a
// workload's path reads 0 there.
var perLayer = []metricDef{
	{"grav.ns_per_pp", "ns"}, {"grav.ns_per_pc", "ns"}, {"grav.eval_ms", "ms"},
	{"grav.pp_per_step", "count"}, {"grav.pc_per_step", "count"}, {"grav.kernel_gflops", "Gflop/s"},
	{"tree.walk_ms", "ms"}, {"tree.walk_ns_per_inter", "ns"}, {"tree.build_ms", "ms"},
	{"tree.cells", "count"}, {"tree.groups", "count"}, {"tree.list_len_mean", "count"},
	{"core.sort_ms", "ms"}, {"core.sort_ns_per_body", "ns"},
	{"domain.decompose_ms", "ms"}, {"domain.decompose_share", "ratio"},
	{"hotengine.walk_ms", "ms"}, {"hotengine.treebuild_ms", "ms"}, {"hotengine.branches_ms", "ms"},
	{"hotengine.rounds_per_eval", "count"}, {"hotengine.remote_cells_per_eval", "count"},
	{"hotengine.walk_over_serial", "ratio"},
	{"msg.msgs_per_step", "count"}, {"msg.bytes_per_step", "B"}, {"msg.max_rank_bytes_per_step", "B"},
	{"msg.allreduce_us", "us"}, {"msg.alltoallv_us", "us"}, {"msg.hung_worlds", "count"},
	{"parallel.step_wall_p10_ms", "ms"}, {"parallel.step_wall_p50_ms", "ms"}, {"parallel.step_wall_p90_ms", "ms"},
	{"parallel.cpu_over_wall", "ratio"}, {"parallel.rank_spread_ms", "ms"},
	{"parallel.inter_per_step", "count"}, {"parallel.gflops_equiv", "Gflop/s"},
	{"parallel.speedup_vs_np1", "ratio"}, {"parallel.cpu_overhead_vs_np1", "ratio"},
	{"parallel.energy_drift", "ratio"}, {"parallel.force_err_p99", "ratio"},
	{"simserve.submit_ms", "ms"}, {"simserve.queue_ms", "ms"}, {"simserve.run_ms", "ms"},
	{"simserve.world_ms", "ms"}, {"simserve.setup_ms", "ms"}, {"simserve.notice_ms", "ms"},
	{"simserve.status_get_us", "us"}, {"simserve.report_get_ms", "ms"},
	{"simserve.latency_p50_ms.gravity", "ms"}, {"simserve.latency_p50_ms.gravity-block", "ms"},
	{"simserve.latency_p50_ms.sph", "ms"}, {"simserve.latency_p50_ms.vortex", "ms"},
	{"simserve.latency_p50_ms", "ms"}, {"simserve.latency_p90_ms", "ms"}, {"simserve.jobs_per_s", "1/s"},
	{"runtime.alloc_kb_per_step", "KB"}, {"runtime.gc_per_step", "count"}, {"runtime.heap_peak_mb", "MB"},
	{"bench.calib_ms", "ms"}, {"bench.calib_drift", "ratio"},
	{"bench.closure_frac", "ratio"}, {"bench.trace_overhead_frac", "ratio"},
}

// workload is one set of inputs. sim is nil for serve-mix.
type workload struct {
	name string
	sim  *simSpec
}

// workloads returns the four workloads at full or quick (test) scale.
// Full scale is sized so that set-up, the timed region and the checks
// of one run fit the driver's budget on a 2-core box; see README.md.
func workloads(quick bool) []workload {
	n, latency, limit := 10000, 128*time.Millisecond, 15*time.Second
	if quick {
		n, latency, limit = 2000, 32*time.Millisecond, 10*time.Second
	}
	sim := func(name string, np, n int, latency time.Duration) workload {
		return workload{name, &simSpec{name: name, np: np, n: n, latency: latency, hangLimit: limit}}
	}
	return []workload{
		sim("serial-plummer", 1, n, 0),
		sim("dist-plummer", 4, n, 0),
		sim("dist-latency", 4, n/2, latency),
		{"serve-mix", nil},
	}
}

// opts is one invocation.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	// fixedOps, when > 0, replaces the time limit by an exact number
	// of steps or jobs (the smoke test's deterministic scale).
	fixedOps int
	// setups is how many times set-up is repeated; setup_s is their
	// median.
	setups   int
	traceDir string
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int
	hung              int // worlds abandoned after a lost wake-up (see session)
	problems, notes   []string
	values            map[string]float64
	samples           map[string]int
	witnessed         []time.Duration    // the witness reading each timed interval was rescaled by
	raw               map[string]float64 // the end-to-end times as measured, before rescaling
}

func (o *outcome) set(name string, v float64, n int) {
	o.values[name] = v
	o.samples[name] = n
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) sawSteps(recs []stepRec) {
	for _, r := range recs {
		o.witnessed = append(o.witnessed, r.witness)
	}
}

// calib is the median witness reading of the run in ms, and drift how
// far the box's speed wandered under the timed region: the readings'
// interquartile range over their median.
func (o *outcome) calib() (calibMS, drift float64) {
	if len(o.witnessed) == 0 {
		return 0, 0
	}
	passes := make([]float64, len(o.witnessed))
	for i, w := range o.witnessed {
		passes[i] = ms(w)
	}
	med := median(passes)
	return med, (percentile(passes, 0.75) - percentile(passes, 0.25)) / med
}

func newOutcome() *outcome {
	return &outcome{values: make(map[string]float64), samples: make(map[string]int)}
}

// noisyDrift is the witness drift beyond which a run is marked noisy:
// the box changed speed under the timed region, so a reader can tell
// a loud neighbour from a regression.
const noisyDrift = 0.10

func main() {
	var o opts
	name := flag.String("workload", "", "workload: serial-plummer, dist-plummer, dist-latency or serve-mix")
	flag.Int64Var(&o.seed, "seed", 42, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 12, "length of the timed region")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, nothing recorded; 1: traced run, per-layer metrics and a trace file")
	flag.BoolVar(&o.quick, "quick", false, "small inputs and 3 steps / 12 jobs (smoke-test scale; numbers not comparable)")
	flag.StringVar(&o.traceDir, "out", filepath.Join("benchmark", "out"), "directory trace files are written to")
	flag.Parse()
	o.trace = *trace != 0
	o.setups = 3
	if o.quick {
		o.fixedOps, o.setups = 3, 1
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	var wl *workload
	for _, w := range workloads(o.quick) {
		if w.name == *name {
			wl = &w
		}
	}
	if wl == nil || flag.NArg() > 0 || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload <serial-plummer|dist-plummer|dist-latency|serve-mix> -seed <n> -seconds <s> -trace <0|1>\n")
		os.Exit(2)
	}

	out, err := run(*wl, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line, err := report(os.Stdout, *wl, o, out, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	fmt.Println(line)
	if len(out.problems) > 0 || out.failed > 0 {
		os.Exit(1)
	}
}

func run(wl workload, o opts) (*outcome, error) {
	switch {
	case wl.sim != nil && o.trace:
		return tracedSim(*wl.sim, o)
	case wl.sim != nil:
		return timedSim(*wl.sim, o)
	case o.trace:
		return tracedServe(o)
	default:
		return timedServe(o)
	}
}

// report prints the human-readable part of the output to w and
// returns the final machine-readable line: exactly the metrics of
// defs, each finite and with its unit.
func report(w io.Writer, wl workload, o opts, out *outcome, defs []metricDef) (string, error) {
	calibMS, drift := out.calib()
	out.set("bench.calib_ms", calibMS, len(out.witnessed))
	out.set("bench.calib_drift", drift, len(out.witnessed))
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %t  quick %t  gomaxprocs %d  nproc %d\n",
		wl.name, o.seed, o.seconds, o.trace, o.quick, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(w, "bench.calib_ms %.4f ms (reference %.0f ms)  bench.calib_drift %.4f  \"noisy\": %t\n",
		calibMS, ms(witnessRef), drift, drift > noisyDrift)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := out.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is not finite", d.name)
		}
		fmt.Fprintf(w, "%-40s %16.6g %-8s n=%d\n", d.name, v, d.unit, out.samples[d.name])
		metrics[d.name] = value{v, d.unit}
	}
	if out.raw != nil {
		// The end-to-end times before rescaling, for machines (repeat.sh).
		raw, err := json.Marshal(out.raw)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(w, "as-measured %s\n", raw)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintf(w, "failed_share %d/%d  hung %d\n", out.failed, out.attempted, out.hung)
	for _, p := range out.problems {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(out.problems) == 0 && out.failed == 0,
		"attempted": max(out.attempted, 1),
		"failed":    out.failed,
		"metrics":   metrics,
	})
	return string(line), err
}
