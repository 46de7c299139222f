// Package cliutil is the drivers' shared command-line edge. Flags
// validates what every simulation driver exposes and ParseChaos turns
// "seed=7,crash=0.001" into a msg.Injector; the four drivers
// (treebench, cosmosim, sphsim, vortexsim) and the simserve job intake
// must agree on what a well-formed run request is -- a bad value
// produces a one-line usage error (exit 2 at the CLI, HTTP 400 at the
// service), never a panic or a hung world. Obs is the observability
// edge: the six flags all four drivers declare (-trace -metrics
// -cpuprofile -memprofile -http -noprogress), turned into
// runner.Attachments before the run and into files after it.
package cliutil

import (
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Flags is the driver-shared subset of a run request. Fields a driver
// does not expose stay at their zero value and are skipped by
// Validate where that is meaningful (DTMode "", Chaos "").
type Flags struct {
	// N is the problem-size flag (-n bodies, -grid lattice, -ntheta
	// ring points -- the count the slab scatter divides by Procs).
	N int
	// Procs is the in-process rank count; the world hangs or divides
	// by zero below 1.
	Procs int
	// Steps is the timestep count; negative is always a spec error
	// (0 is a valid force-only run).
	Steps int
	// DTMode is the stepping scheme ("" = driver has no -dtmode flag).
	DTMode string
	// Eta is the block-timestep criterion scale, checked only when
	// DTMode is "block".
	Eta float64
	// Chaos is the fault-injection spec ("" = off).
	Chaos string
}

// Validate checks the request and parses the chaos spec. The returned
// injector is nil when Chaos is empty. The error is a single line fit
// for a usage message.
func (f Flags) Validate() (*msg.Injector, error) {
	if f.N < 1 {
		return nil, fmt.Errorf("problem size must be >= 1 (got %d)", f.N)
	}
	if f.Procs < 1 {
		return nil, fmt.Errorf("-procs must be >= 1 (got %d)", f.Procs)
	}
	if f.Steps < 0 {
		return nil, fmt.Errorf("-steps must be >= 0 (got %d)", f.Steps)
	}
	switch f.DTMode {
	case "", "uniform":
	case "block":
		if !Positive(f.Eta) {
			return nil, fmt.Errorf("-eta must be finite and > 0 with -dtmode=block (got %g)", f.Eta)
		}
	default:
		return nil, fmt.Errorf("unknown -dtmode %q (want uniform or block)", f.DTMode)
	}
	if f.Chaos == "" {
		return nil, nil
	}
	inj, err := ParseChaos(f.Chaos)
	if err != nil {
		return nil, fmt.Errorf("-chaos: %v", err)
	}
	return inj, nil
}

// Positive reports whether x is a finite number above zero. A request
// field is checked with this, not with x <= 0: NaN fails every
// comparison, so the negated form lets it through.
func Positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Fail prints prog and the validation error as one line on stderr and
// exits 2 -- the conventional usage-error code, distinct from runtime
// failure (1) and structured world abort (3).
func Fail(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(2)
}

// ParseChaos builds a fault injector from a "key=value,..." spec:
// seed (uint), crash/stall/latency/reorder (probabilities in [0,1]),
// crashphase/stallphase (phase labels gating crash/stall).
func ParseChaos(spec string) (*msg.Injector, error) {
	inj := &msg.Injector{}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad chaos field %q (want key=value)", kv)
		}
		switch key {
		case "crashphase":
			inj.CrashPhase = val
			continue
		case "stallphase":
			inj.StallPhase = val
			continue
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad chaos seed %q", val)
			}
			inj.Seed = s
			continue
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("bad chaos probability %q=%q (want [0,1])", key, val)
		}
		switch key {
		case "crash":
			inj.CrashProb = p
		case "stall":
			inj.StallProb = p
		case "latency":
			inj.LatencyProb = p
		case "reorder":
			inj.ReorderProb = p
		default:
			return nil, fmt.Errorf("unknown chaos key %q", key)
		}
	}
	return inj, nil
}

// Obs holds a driver's logger, the six observability flags and what
// they started.
type Obs struct {
	// Log is the driver's structured stderr logger.
	Log *slog.Logger

	prog                                         string
	trace, metrics, cpuprofile, memprofile, http string
	noProgress                                   time.Duration
	at                                           runner.Attachments
	closers                                      []func()
}

// ObsFlags registers the observability flags of driver prog on the
// default flag set; call before flag.Parse.
func ObsFlags(prog string) *Obs {
	o := &Obs{prog: prog, Log: telemetry.NewLogger(os.Stderr, prog)}
	flag.StringVar(&o.trace, "trace", "", "write a Chrome trace_event JSON timeline of the distributed run (open in chrome://tracing or ui.perfetto.dev)")
	flag.StringVar(&o.metrics, "metrics", "", "write a machine-readable RunReport JSON of the distributed run (render with cmd/perfreport)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile at exit")
	flag.StringVar(&o.http, "http", "", "serve live telemetry (/metrics /series /health /report /debug/pprof) on this address (:0 picks a port)")
	flag.DurationVar(&o.noProgress, "noprogress", 3*time.Second, "telemetry no-progress health threshold (with -http; 0 = off)")
	return o
}

// instrumented reports whether a flag that observes the distributed
// engine is set.
func (o *Obs) instrumented() bool { return o.trace != "" || o.metrics != "" || o.http != "" }

// check ends the process with exit 1 on an environment error (a file
// that cannot be written, an address that cannot be bound).
func (o *Obs) check(what string, err error) {
	if err != nil {
		o.Log.Error(what+" failed", "err", err)
		os.Exit(1)
	}
}

// Start begins what the flags ask for -- CPU profile, trace run,
// registry, sampler and live endpoint; nothing when they are off --
// adding them to at, the attachments Run will hand the runner. Defer
// Close.
func (o *Obs) Start(np int, at runner.Attachments) {
	o.at = at
	if o.cpuprofile != "" {
		stop, err := trace.StartCPUProfile(o.cpuprofile)
		o.check("cpuprofile", err)
		o.closers = append(o.closers, stop)
	}
	if o.trace != "" || o.http != "" {
		o.at.Trace = trace.NewRun(np)
	}
	if o.instrumented() {
		o.at.Registry = metrics.NewRegistry()
	}
	if o.http != "" {
		mon := telemetry.DefaultMonitors()
		mon.NoProgress = o.noProgress
		mon.Log = o.Log
		o.at.Sampler = telemetry.NewSampler(telemetry.Config{
			NP: np, Registry: o.at.Registry, Trace: o.at.Trace, Monitors: mon, Command: o.prog,
		})
		ep, err := telemetry.Serve(o.http, o.at.Sampler, o.Log)
		o.check("telemetry endpoint", err)
		o.closers = append(o.closers, o.at.Sampler.Close, ep.Close)
		// scripts/telemetry_smoke.sh greps this line to discover the
		// :0-assigned port.
		fmt.Printf("telemetry: listening on %s\n", ep.Addr)
	}
}

// Abort reports a failed world on stderr as the structured abort and
// exits 3: a contained failure, as opposed to a crash (a panic, exit
// 2) or a hang (the harness timeout).
func (o *Obs) Abort(err error) {
	o.Log.Error("world aborted", "err", err)
	os.Exit(3)
}

// Run executes the plan under the started attachments and finishes
// the run: the chaos summary, then Abort on a rank failure, else the
// RunReport and the Chrome trace files.
func (o *Obs) Run(p runner.Plan) *runner.Result {
	res, err := runner.Run(p, o.at)
	reg, run := o.at.Registry, o.at.Trace
	if inj := o.at.Injector; inj != nil {
		st := inj.Stats()
		o.Log.Info("chaos: injection summary",
			"delays", st.Delays, "reorders", st.Reorders, "stalls", st.Stalls, "crashes", st.Crashes)
		if reg != nil {
			reg.Counter(metrics.ChaosDelays).Add(st.Delays)
			reg.Counter(metrics.ChaosReorders).Add(st.Reorders)
			reg.Counter(metrics.ChaosStalls).Add(st.Stalls)
			reg.Counter(metrics.ChaosCrashes).Add(st.Crashes)
		}
	}
	if err != nil {
		o.Abort(err)
	}
	if o.metrics != "" {
		rep := metrics.BuildReport(o.prog, res.Wall.Seconds(), res.Ranks, res.World, reg)
		rep.TraceDropped = run.Dropped()
		if g, ok := p.Physics.(runner.Gravity); ok {
			t := &rep.Totals
			t.WalkSamplePerBody, t.WalkSampleGrouped, t.WalkSampleBodies = res.PerBodyWalk(g)
		}
		o.check("metrics write", rep.WriteFile(o.metrics))
		fmt.Printf("wrote RunReport %s (render: go run ./cmd/perfreport %s)\n", o.metrics, o.metrics)
	}
	if o.trace != "" {
		o.check("trace write", run.WriteChromeFile(o.trace))
		if d := run.Dropped(); d > 0 {
			o.Log.Warn("trace ring dropped events; exported timeline is incomplete",
				"dropped", d, "path", o.trace)
		}
		fmt.Printf("wrote trace %s (%d events dropped)\n", o.trace, run.Dropped())
	}
	return res
}

// PrintPhases prints one rank's per-phase wall clock (the sub-phases,
// "treebuild/sort", are the report's), rounds and remote cells under
// title.
func PrintPhases(title string, in metrics.RankInput) {
	fmt.Println(title)
	for _, ph := range in.Phases {
		if !strings.Contains(ph.Name, "/") {
			fmt.Printf("  %-12s %v\n", ph.Name, ph.D)
		}
	}
	fmt.Printf("  rounds=%d remoteCells=%d\n", in.Rounds, in.RemoteCells)
}

// Close stops what Start began and writes the heap profile.
func (o *Obs) Close() {
	for i := len(o.closers) - 1; i >= 0; i-- {
		o.closers[i]()
	}
	if o.memprofile != "" {
		o.check("memprofile", trace.WriteHeapProfile(o.memprofile))
	}
}
