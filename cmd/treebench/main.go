// Command treebench benchmarks the parallel hashed oct-tree on a
// clustered body distribution, printing interaction counts, host
// throughput, and modeled throughput on the paper's machines.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	n := flag.Int("n", 100000, "number of bodies")
	procs := flag.Int("procs", 8, "simulated processors")
	steps := flag.Int("steps", 3, "timesteps")
	theta := flag.Float64("theta", 0, "Barnes-Hut opening angle (0 = use -atol)")
	atol := flag.Float64("atol", 1e-4, "Salmon-Warren acceleration error bound")
	bucket := flag.Int("bucket", 16, "tree leaf size")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON timeline")
	metricsOut := flag.String("metrics", "", "write a machine-readable RunReport JSON")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit")
	chaosSpec := flag.String("chaos", "", `fault injection spec, e.g. "seed=7,crash=0.001,crashphase=walk" (test harness; keys: seed, crash, crashphase, stall, stallphase, latency, reorder)`)
	watchdog := flag.Duration("watchdog", 0, "abort with a stall report after this long without progress (0 = off; chaos runs default to 5s)")
	dtmode := flag.String("dtmode", "uniform", "time stepping: uniform (one rung) or block (hierarchical per-body sub-steps)")
	eta := flag.Float64("eta", 0.02, "block-timestep criterion scale: dt_i = eta*sqrt(eps/|a_i|)")
	httpAddr := flag.String("http", "", "serve live telemetry (/metrics /series /health /report /debug/pprof) on this address (:0 picks a port)")
	noProgress := flag.Duration("noprogress", 3*time.Second, "telemetry no-progress health threshold (with -http; 0 = off)")
	flag.Parse()
	lg := telemetry.NewLogger(os.Stderr, "treebench")
	inj, err := cliutil.Flags{
		N: *n, Procs: *procs, Steps: *steps, DTMode: *dtmode, Eta: *eta,
		Chaos: *chaosSpec,
	}.Validate()
	if err != nil {
		cliutil.Fail("treebench", err)
	}

	if *cpuprofile != "" {
		stop, err := trace.StartCPUProfile(*cpuprofile)
		if err != nil {
			lg.Error("cpuprofile failed", "err", err)
			os.Exit(1)
		}
		defer stop()
	}
	var run *trace.Run
	if *traceOut != "" || *httpAddr != "" {
		run = trace.NewRun(*procs)
	}
	var reg *metrics.Registry
	var stalls *metrics.Histogram
	if *metricsOut != "" || *traceOut != "" || *httpAddr != "" {
		reg = metrics.NewRegistry()
		stalls = reg.Histogram(metrics.StallHistogram)
	}

	var tel *telemetry.Sampler
	if *httpAddr != "" {
		mon := telemetry.DefaultMonitors()
		mon.NoProgress = *noProgress
		mon.Log = lg
		tel = telemetry.NewSampler(telemetry.Config{
			NP: *procs, Registry: reg, Trace: run, Monitors: mon, Command: "treebench",
		})
		defer tel.Close()
		ep, err := telemetry.Serve(*httpAddr, tel, lg)
		if err != nil {
			lg.Error("telemetry endpoint failed", "err", err)
			os.Exit(1)
		}
		defer ep.Close()
		// The smoke test (scripts/telemetry_smoke.sh) greps this line to
		// discover the :0-assigned port.
		fmt.Printf("telemetry: listening on %s\n", ep.Addr)
	}

	global := ic.Plummer(*n, 1.0, 42)
	mac := grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: *atol, Quad: true}
	if *theta > 0 {
		mac = grav.MACParams{Kind: grav.MACBarnesHut, Theta: *theta, Quad: true}
	}

	engines := make([]*parallel.Engine, *procs)
	w := msg.NewWorld(*procs)
	w.SetTrace(run)
	if inj != nil {
		w.SetInjector(inj)
		if *watchdog == 0 {
			*watchdog = 5 * time.Second
		}
	}
	if *watchdog > 0 {
		w.StartWatchdog(msg.WatchdogConfig{Quiet: *watchdog, Stacks: true, Log: lg})
	}
	start := time.Now()
	werr := w.RunErr(func(c *msg.Comm) {
		local := core.New(0)
		local.EnableDynamics()
		lo, hi := c.Rank()**n / *procs, (c.Rank()+1)**n / *procs
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}
		e := parallel.New(c, local, parallel.Config{
			MAC: mac, Bucket: *bucket, Eps2: 1e-6,
		})
		if *dtmode == "block" {
			e.Stepper.Scheme = integrate.Block
			e.Stepper.Eta = *eta
			e.Stepper.Eps = math.Sqrt(1e-6)
		}
		if run != nil {
			e.EnableTrace(run.Rank(c.Rank()))
		}
		e.Stalls = stalls
		t0 := time.Now()
		e.ComputeForces()
		if tel != nil {
			// The initial evaluation is sample 1: energies are current
			// here, giving the drift monitor its E0 baseline.
			tel.Contribute(c.Rank(), e.Telemetry(time.Since(t0).Nanoseconds()))
		}
		for s := 0; s < *steps; s++ {
			t0 = time.Now()
			e.Step(1e-3)
			if tel != nil {
				tel.Contribute(c.Rank(), e.Telemetry(time.Since(t0).Nanoseconds()))
			}
		}
		engines[c.Rank()] = e
	})
	wall := time.Since(start).Seconds()
	if inj != nil {
		st := inj.Stats()
		lg.Info("chaos: injection summary",
			"delays", st.Delays, "reorders", st.Reorders, "stalls", st.Stalls, "crashes", st.Crashes)
		if reg != nil {
			reg.Counter(metrics.ChaosDelays).Add(st.Delays)
			reg.Counter(metrics.ChaosReorders).Add(st.Reorders)
			reg.Counter(metrics.ChaosStalls).Add(st.Stalls)
			reg.Counter(metrics.ChaosCrashes).Add(st.Crashes)
		}
	}
	if werr != nil {
		// Structured abort: exit code 3 distinguishes a contained
		// failure from a crash (panic) or a hang (harness timeout).
		lg.Error("world aborted", "err", werr)
		os.Exit(3)
	}

	var inter, flops uint64
	for _, e := range engines {
		inter += e.Counters.Interactions()
		flops += e.Counters.Flops()
	}
	evals := uint64(*steps + 1)
	fmt.Printf("N=%d procs=%d evaluations=%d\n", *n, *procs, evals)
	fmt.Printf("interactions: %d total, %.1f per body per evaluation\n",
		inter, float64(inter)/float64(*n)/float64(evals))
	fmt.Printf("flops (38/interaction): %d\n", flops)
	fmt.Printf("host: %.2fs wall, %.2f Gflops-equivalent\n", wall, float64(flops)/wall/1e9)
	comm := w.MaxRankTraffic()
	fmt.Printf("comm (max rank): %d msgs, %.2f MB\n", comm.Msgs, float64(comm.Bytes)/1e6)
	if *dtmode == "block" {
		var active, total uint64
		for _, e := range engines {
			active += e.Stepper.Stats.ActiveSinks
			total += e.Stepper.Stats.TotalSinks
		}
		st := engines[0].Stepper.Stats
		if total > 0 {
			fmt.Printf("block stepping: %d sub-steps (%d full + %d partial evals), active fraction %.4f\n",
				st.SubSteps, st.FullEvals, st.PartialEvals, float64(active)/float64(total))
		}
	}

	if *metricsOut != "" {
		inputs := make([]metrics.RankInput, len(engines))
		for r, e := range engines {
			inputs[r] = e.Report()
		}
		rep := metrics.BuildReport("treebench", *n, wall, inputs, w, reg)
		rep.TraceDropped = run.Dropped()
		if err := rep.WriteFile(*metricsOut); err != nil {
			lg.Error("metrics write failed", "err", err)
			os.Exit(1)
		}
		fmt.Printf("wrote RunReport %s\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := run.WriteChromeFile(*traceOut); err != nil {
			lg.Error("trace write failed", "err", err)
			os.Exit(1)
		}
		if d := run.Dropped(); d > 0 {
			lg.Warn("trace ring dropped events; exported timeline is incomplete",
				"dropped", d, "path", *traceOut)
		}
		fmt.Printf("wrote trace %s (%d events dropped)\n", *traceOut, run.Dropped())
	}
	if *memprofile != "" {
		if err := trace.WriteHeapProfile(*memprofile); err != nil {
			lg.Error("memprofile failed", "err", err)
			os.Exit(1)
		}
	}
	for _, m := range []*perfmodel.Machine{&perfmodel.Loki, &perfmodel.ASCIRed} {
		est := m.Model(flops, perfmodel.RegimeTreeEarly, comm)
		fmt.Printf("modeled on %s\n  %s\n", m.Name, est)
	}
}
