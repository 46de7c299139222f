// Command vortexsim runs the fusion of two vortex rings with the
// vortex particle method -- the paper's Hyglac showcase -- including
// the periodic remeshing that grows the particle count, and reports
// the paper-style flop accounting.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/ic"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/perfmodel"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vec"
	"repro/internal/vortex"
)

func main() {
	nTheta := flag.Int("ntheta", 64, "points around each ring")
	nCore := flag.Int("ncore", 4, "points across each core")
	steps := flag.Int("steps", 30, "timesteps")
	remeshEvery := flag.Int("remesh", 10, "remesh interval (0 = off)")
	dt := flag.Float64("dt", 0.02, "timestep")
	sigma := flag.Float64("sigma", 0.12, "core smoothing radius")
	theta := flag.Float64("theta", 0.5, "opening angle")
	procs := flag.Int("procs", 1, "in-process ranks (>1 runs the distributed engine; remeshing off)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON timeline (needs -procs > 1)")
	metricsOut := flag.String("metrics", "", "write a machine-readable RunReport JSON (needs -procs > 1)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit")
	httpAddr := flag.String("http", "", "serve live telemetry (/metrics /series /health /report /debug/pprof) on this address (:0 picks a port)")
	noProgress := flag.Duration("noprogress", 3*time.Second, "telemetry no-progress health threshold (with -http; 0 = off)")
	flag.Parse()
	lg := telemetry.NewLogger(os.Stderr, "vortexsim")
	if _, err := (cliutil.Flags{
		N: *nTheta * *nCore, Procs: *procs, Steps: *steps,
	}).Validate(); err != nil {
		cliutil.Fail("vortexsim", err)
	}

	if *cpuprofile != "" {
		stop, err := trace.StartCPUProfile(*cpuprofile)
		if err != nil {
			lg.Error("cpuprofile failed", "err", err)
			os.Exit(1)
		}
		defer stop()
	}
	if (*traceOut != "" || *metricsOut != "" || *httpAddr != "") && *procs <= 1 {
		lg.Error("-trace/-metrics/-http instrument the distributed engine; use -procs > 1")
		os.Exit(1)
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
			NP: *procs, Registry: reg, Trace: run, Monitors: mon, Command: "vortexsim",
		})
		defer tel.Close()
		ep, err := telemetry.Serve(*httpAddr, tel, lg)
		if err != nil {
			lg.Error("telemetry endpoint failed", "err", err)
			os.Exit(1)
		}
		defer ep.Close()
		fmt.Printf("telemetry: listening on %s\n", ep.Addr)
	}

	sys := core.New(0)
	sys.EnableDynamics()
	sys.EnableVortex()
	// Two parallel rings, offset so they attract and merge.
	ic.VortexRing(sys, 1.0, 1.0, *sigma, vec.V3{X: -0.75}, vec.V3{Z: 1}, *nTheta, *nCore, 41)
	ic.VortexRing(sys, 1.0, 1.0, *sigma, vec.V3{X: 0.75}, vec.V3{Z: 1}, *nTheta, *nCore, 43)
	fmt.Printf("initial particles: %d (paper run: 57,000)\n", sys.Len())

	var total diag.Counters
	var w *msg.World
	var inputs []metrics.RankInput
	start := time.Now()
	if *procs > 1 {
		sys, total, w, inputs = runParallel(sys, *steps, *dt, *sigma, *theta, *procs, run, stalls, tel)
	} else {
		for s := 0; s < *steps; s++ {
			ctr := vortex.Step(sys, *sigma, *theta, *dt)
			total.Add(ctr)
			if *remeshEvery > 0 && (s+1)%*remeshEvery == 0 {
				before := sys.Len()
				sys = vortex.Remesh(sys, *sigma/2, 1e-4)
				fmt.Printf("step %3d: remesh %d -> %d particles\n", s, before, sys.Len())
			}
			if s%10 == 0 {
				c := vortex.Centroid(sys.Pos, sys.Alpha)
				i := vortex.LinearImpulse(sys.Pos, sys.Alpha)
				fmt.Printf("step %3d: centroid z=%.3f, impulse=(%.3f,%.3f,%.3f)\n",
					s, c.Z, i.X, i.Y, i.Z)
			}
		}
	}
	wall := time.Since(start).Seconds()

	fmt.Printf("final particles: %d (paper ended at 360,000)\n", sys.Len())
	fmt.Printf("vortex interactions: %d, flops: %d\n", total.VortexPP, total.Flops())
	fmt.Printf("host: %.2fs, %.1f Mflops-equivalent\n", wall, float64(total.Flops())/wall/1e6)
	est := perfmodel.Hyglac.Model(total.Flops(), perfmodel.RegimeTreeClustered, msg.PhaseTraffic{})
	fmt.Printf("modeled on %s: %s (paper sustained ~950 Mflops over 20 h)\n",
		perfmodel.Hyglac.Name, est)

	if *metricsOut != "" {
		rep := metrics.BuildReport("vortexsim", sys.Len(), wall, inputs, w, reg)
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
}

// runParallel evolves the ring pair on the distributed vortex engine:
// each in-process rank owns a slab of particles and the shared
// hotengine pipeline supplies the decomposition, branch exchange and
// batched request rounds. Returns the gathered final system and the
// summed counters; rank 0 prints the per-phase timer breakdown the
// shared core provides (the diagnostics parity gravity always had).
// run, stalls and tel, when non-nil, instrument every rank.
func runParallel(global *core.System, steps int, dt, sigma, theta float64, procs int,
	run *trace.Run, stalls *metrics.Histogram, tel *telemetry.Sampler) (*core.System, diag.Counters, *msg.World, []metrics.RankInput) {
	n := global.Len()
	var mu sync.Mutex
	var total diag.Counters
	merged := core.New(0)
	merged.EnableDynamics()
	merged.EnableVortex()
	inputs := make([]metrics.RankInput, procs)
	w := msg.NewWorld(procs)
	w.SetTrace(run)
	w.Run(func(c *msg.Comm) {
		lo, hi := c.Rank()*n/c.Size(), (c.Rank()+1)*n/c.Size()
		local := core.New(0)
		local.EnableDynamics()
		local.EnableVortex()
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}

		e := vortex.NewParallel(c, local, sigma, theta)
		if run != nil {
			e.EnableTrace(run.Rank(c.Rank()))
		}
		e.Stalls = stalls
		for s := 0; s < steps; s++ {
			t0 := time.Now()
			e.Step(dt)
			if tel != nil {
				tel.Contribute(c.Rank(), e.Telemetry(time.Since(t0).Nanoseconds()))
			}
		}

		mu.Lock()
		defer mu.Unlock()
		total.Add(e.Counters)
		inputs[c.Rank()] = e.Report()
		for i := 0; i < e.Sys.Len(); i++ {
			merged.AppendFrom(e.Sys, i)
		}
		if c.Rank() == 0 {
			fmt.Println("rank 0 phase breakdown:")
			for _, ph := range e.Timer.Phases() {
				fmt.Printf("  %-12s %v\n", ph, e.Timer.Get(ph))
			}
			fmt.Printf("  rounds=%d remoteCells=%d\n", e.Rounds, e.RemoteCells)
		}
	})
	c := vortex.Centroid(merged.Pos, merged.Alpha)
	i := vortex.LinearImpulse(merged.Pos, merged.Alpha)
	fmt.Printf("final state: centroid z=%.3f, impulse=(%.3f,%.3f,%.3f)\n", c.Z, i.X, i.Y, i.Z)
	return merged, total, w, inputs
}
