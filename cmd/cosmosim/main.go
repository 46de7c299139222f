// Command cosmosim runs a scaled version of the paper's cosmological
// simulations: CDM initial conditions from a 3-D FFT realization,
// sphere-with-buffer geometry, parallel treecode evolution, striped
// snapshots, and a log-density projection image at the end.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/grav"
	"repro/internal/integrate"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/parallel"
	"repro/internal/render"
	"repro/internal/snapio"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vec"
)

func main() {
	grid := flag.Int("grid", 32, "IC lattice size (power of two)")
	procs := flag.Int("procs", 8, "simulated processors")
	steps := flag.Int("steps", 20, "timesteps")
	snapEvery := flag.Int("snap", 0, "write a striped snapshot every k steps (0 = off)")
	outDir := flag.String("out", ".", "output directory")
	image := flag.String("image", "cosmo.pgm", "final density image (empty = off)")
	halos := flag.Bool("halos", true, "run the FOF halo finder at the end")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON timeline (open in chrome://tracing or Perfetto)")
	metricsOut := flag.String("metrics", "", "write a machine-readable RunReport JSON (render with cmd/perfreport)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit")
	watchdog := flag.Duration("watchdog", 0, "abort with a stall report after this long without progress (0 = off)")
	dtmode := flag.String("dtmode", "uniform", "time stepping: uniform (one rung) or block (hierarchical per-body sub-steps)")
	eta := flag.Float64("eta", 0.02, "block-timestep criterion scale: dt_i = eta*sqrt(eps/|a_i|)")
	httpAddr := flag.String("http", "", "serve live telemetry (/metrics /series /health /report /debug/pprof) on this address (:0 picks a port)")
	noProgress := flag.Duration("noprogress", 3*time.Second, "telemetry no-progress health threshold (with -http; 0 = off)")
	flag.Parse()
	lg := telemetry.NewLogger(os.Stderr, "cosmosim")
	if _, err := (cliutil.Flags{
		N: *grid, Procs: *procs, Steps: *steps, DTMode: *dtmode, Eta: *eta,
	}).Validate(); err != nil {
		cliutil.Fail("cosmosim", err)
	}

	r, err := cosmo.NewRealization(cosmo.Params{
		Grid: *grid, Box: 1.0, DeltaRMS: 0.25, ShapeGamma: 8, Seed: 12345,
	})
	if err != nil {
		lg.Error("realization failed", "err", err)
		os.Exit(1)
	}
	full, h0 := r.ICs()
	sys := cosmo.SphereWithBuffer(full, vec.V3{}, 0.40, 0.50)
	fmt.Printf("ICs: %d of %d bodies in sphere+buffer, H0=%.3f\n", sys.Len(), full.Len(), h0)

	if *cpuprofile != "" {
		stop, err := trace.StartCPUProfile(*cpuprofile)
		if err != nil {
			lg.Error("cpuprofile failed", "err", err)
			os.Exit(1)
		}
		defer stop()
	}

	// Observability: -trace records per-rank timelines, -metrics
	// feeds the stall histogram and the final RunReport, -http serves
	// all of it live. Everything is nil (zero-cost) when the flags are
	// off.
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
			NP: *procs, Registry: reg, Trace: run, Monitors: mon, Command: "cosmosim",
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

	n := sys.Len()
	engines := make([]*parallel.Engine, *procs)
	w := msg.NewWorld(*procs)
	w.SetTrace(run)
	if *watchdog > 0 {
		w.StartWatchdog(msg.WatchdogConfig{Quiet: *watchdog, Stacks: true, Log: lg})
	}
	start := time.Now()
	werr := w.RunErr(func(c *msg.Comm) {
		local := core.New(0)
		local.EnableDynamics()
		lo, hi := c.Rank()*n / *procs, (c.Rank()+1)*n / *procs
		for i := lo; i < hi; i++ {
			local.AppendFrom(sys, i)
		}
		e := parallel.New(c, local, parallel.Config{
			MAC:  grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 3e-3, Quad: true},
			Eps2: 1e-6,
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
			tel.Contribute(c.Rank(), e.Telemetry(time.Since(t0).Nanoseconds()))
		}
		for s := 0; s < *steps; s++ {
			t0 = time.Now()
			ctr := e.Step(5e-4)
			if tel != nil {
				tel.Contribute(c.Rank(), e.Telemetry(time.Since(t0).Nanoseconds()))
			}
			if s%5 == 0 || s == *steps-1 {
				// Energy is a collective: every rank participates.
				kin, pot := e.Energy()
				if c.Rank() == 0 {
					fmt.Printf("step %3d: %d interactions, E = %.6f\n",
						s, ctr.Interactions(), kin+pot)
				}
			}
		}
		engines[c.Rank()] = e
	})
	wall := time.Since(start).Seconds()
	if werr != nil {
		// Structured abort (exit 3): a contained failure, as opposed
		// to a crash (panic) or a hang (external timeout).
		lg.Error("world aborted", "err", werr)
		os.Exit(3)
	}

	out := core.New(0)
	out.EnableDynamics()
	var flops uint64
	for _, e := range engines {
		for i := 0; i < e.Sys.Len(); i++ {
			out.AppendFrom(e.Sys, i)
		}
		flops += e.Counters.Flops()
	}
	fmt.Printf("done: %.1fs host, %d bodies, %.2f Gflops-equivalent\n",
		wall, out.Len(), float64(flops)/wall/1e9)

	if *metricsOut != "" {
		inputs := make([]metrics.RankInput, len(engines))
		for r, e := range engines {
			inputs[r] = e.Report()
		}
		rep := metrics.BuildReport("cosmosim", out.Len(), wall, inputs, w, reg)
		rep.TraceDropped = run.Dropped()
		if err := rep.WriteFile(*metricsOut); err != nil {
			lg.Error("metrics write failed", "err", err)
			os.Exit(1)
		}
		fmt.Printf("wrote RunReport %s (render: go run ./cmd/perfreport %s)\n", *metricsOut, *metricsOut)
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
		fmt.Printf("wrote trace %s (%d events dropped); open in chrome://tracing or ui.perfetto.dev\n",
			*traceOut, run.Dropped())
	}
	if *memprofile != "" {
		if err := trace.WriteHeapProfile(*memprofile); err != nil {
			lg.Error("memprofile failed", "err", err)
			os.Exit(1)
		}
	}

	if *snapEvery > 0 {
		if err := snapio.WriteStriped(*outDir, "cosmo", out, float64(*steps), 4); err != nil {
			lg.Error("snapshot write failed", "err", err)
			os.Exit(1)
		}
		fmt.Printf("wrote striped snapshot cosmo.* (4 stripes) in %s\n", *outDir)
	}
	if *image != "" {
		img := render.Project(out, vec.V3{}, 0.55, 512, 512)
		if err := img.WritePGM(*image); err != nil {
			lg.Error("image write failed", "err", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *image)
	}

	if *halos {
		// Friends-of-friends galaxy identification, the paper's
		// science driver: linking length 0.2x the mean interparticle
		// spacing of the high-resolution region.
		spacing := 1.0 / float64(*grid)
		found := analysis.FOF(out, 0.2*spacing, 10)
		fmt.Printf("\nFOF halos (>= 10 particles): %d\n", len(found))
		for i, h := range found {
			if i >= 5 {
				fmt.Printf("  ... and %d more\n", len(found)-5)
				break
			}
			fmt.Printf("  halo %d: %5d particles, mass %.4g, r50 %.4f, center (%.3f %.3f %.3f)\n",
				i, len(h.Members), h.Mass, h.R50, h.Center.X, h.Center.Y, h.Center.Z)
		}
		if len(found) > 0 {
			mass, count := analysis.MassFunction(found, 6)
			fmt.Println("halo mass function:")
			for b := range mass {
				fmt.Printf("  M ~ %.3g: %d halos\n", mass[b], count[b])
			}
		}
	}
}
