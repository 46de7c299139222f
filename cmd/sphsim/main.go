// Command sphsim demonstrates smoothed particle hydrodynamics on the
// treecode (the paper: "Smoothed Particle Hydrodynamics is implemented
// with 3000 lines" atop the same library): a self-gravitating gas
// sphere evolves with gravity plus pressure, next to a pressureless
// control run. Pressure support slows the central collapse -- the
// qualitative physics an SPH+gravity code must show.
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
	"repro/internal/integrate"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/sph"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vec"
)

func main() {
	n := flag.Int("n", 4000, "gas particles")
	steps := flag.Int("steps", 150, "timesteps")
	dt := flag.Float64("dt", 4e-3, "timestep")
	cs := flag.Float64("cs", 0.8, "isothermal sound speed of the gas run")
	procs := flag.Int("procs", 1, "in-process ranks (>1 runs the distributed engine)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON timeline of the gas run (needs -procs > 1)")
	metricsOut := flag.String("metrics", "", "write a machine-readable RunReport JSON of the gas run (needs -procs > 1)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit")
	httpAddr := flag.String("http", "", "serve live telemetry (/metrics /series /health /report /debug/pprof) on this address (:0 picks a port)")
	noProgress := flag.Duration("noprogress", 3*time.Second, "telemetry no-progress health threshold (with -http; 0 = off)")
	flag.Parse()
	lg := telemetry.NewLogger(os.Stderr, "sphsim")
	if _, err := (cliutil.Flags{
		N: *n, Procs: *procs, Steps: *steps,
	}).Validate(); err != nil {
		cliutil.Fail("sphsim", err)
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
	// Only the gas run is instrumented: it is the physics of interest;
	// the pressureless control is a reference computation.
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
			NP: *procs, Registry: reg, Trace: run, Monitors: mon, Command: "sphsim",
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

	fmt.Printf("N = %d gas particles, %d steps of dt = %g", *n, *steps, *dt)
	if *procs > 1 {
		fmt.Printf(" on %d ranks", *procs)
	}
	fmt.Printf("\n\n")
	var gas, control *core.System
	var ctrGas, ctrCtl diag.Counters
	if *procs > 1 {
		start := time.Now()
		gasRun := runParallel(*n, *steps, *dt, *cs, *procs, run, stalls, tel)
		wall := time.Since(start).Seconds()
		gas, ctrGas = gasRun.sys, gasRun.total

		if *metricsOut != "" {
			rep := metrics.BuildReport("sphsim", gas.Len(), wall, gasRun.inputs, gasRun.world, reg)
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

		ctl := runParallel(*n, *steps, *dt, 0, *procs, nil, nil, nil)
		control, ctrCtl = ctl.sys, ctl.total
	} else {
		gas, ctrGas = serialRun(*n, *steps, *dt, *cs)
		control, ctrCtl = serialRun(*n, *steps, *dt, 0)
	}
	if *memprofile != "" {
		if err := trace.WriteHeapProfile(*memprofile); err != nil {
			lg.Error("memprofile failed", "err", err)
			os.Exit(1)
		}
	}

	fGas := centralMassFraction(gas)
	fCtl := centralMassFraction(control)
	fmt.Println("mass fraction within r < 0.1 of the center after the run:")
	fmt.Printf("  with pressure (cs=%.2f): %.4f\n", *cs, fGas)
	fmt.Printf("  pressureless control   : %.4f\n", fCtl)
	if fCtl > fGas {
		fmt.Println("  -> pressure support slowed the collapse, as it must")
	}
	fmt.Printf("\nwork: gas run %d SPH pairs + %d gravity interactions (%d flops total)\n",
		ctrGas.SPHPairs, ctrGas.Interactions(), ctrGas.Flops())
	fmt.Printf("      control  %d gravity interactions\n", ctrCtl.Interactions())
}

// serialRun evolves a cold uniform gas sphere under gravity plus
// isothermal pressure (cs = 0 disables pressure). Both force
// evaluations share one tree build per step.
func serialRun(n, steps int, dt, cs float64) (*core.System, diag.Counters) {
	sys := ic.UniformSphere(n, 1.0, 99)
	sys.EnableSPH()
	for i := range sys.H {
		sys.H[i] = 0.1 // ~2x mean spacing for a few thousand bodies
	}
	p := &sph.Params{EOS: sph.Isothermal, CS: cs, AlphaVisc: 1, BetaVisc: 2}
	var total diag.Counters

	forces := func(s *core.System) {
		// sph.Step sorts, builds the tree, fills Rho and the pressure
		// acceleration in Acc (zero work when cs == 0 still computes
		// density; harmless for the control).
		tr, ctr := sph.Step(s, p, 16)
		total.Add(ctr)
		pressure := append(s.Acc[:0:0], s.Acc...)
		if cs == 0 {
			for i := range pressure {
				pressure[i] = vec.V3{}
			}
		}
		gctr := tr.Gravity(1e-4)
		total.Add(gctr)
		for i := range s.Acc {
			s.Acc[i] = s.Acc[i].Add(pressure[i])
		}
	}
	forces(sys)
	integrate.Leapfrog(sys, forces, dt, steps)
	return sys, total
}

// parallelRun is what runParallel hands back: the gathered system,
// summed counters, and the world plus per-rank inputs the RunReport
// needs.
type parallelRun struct {
	sys    *core.System
	total  diag.Counters
	world  *msg.World
	inputs []metrics.RankInput
}

// runParallel evolves the same gas sphere on the distributed engine:
// each in-process rank owns a slab of particles and the hotengine
// pipeline handles decomposition, halo exchange and the gravity walk.
// The pressureless control disables viscosity along with the sound
// speed, which zeroes the SPH acceleration exactly. run, stalls and
// tel, when non-nil, instrument every rank.
func runParallel(n, steps int, dt, cs float64, procs int,
	run *trace.Run, stalls *metrics.Histogram, tel *telemetry.Sampler) parallelRun {
	p := sph.Params{EOS: sph.Isothermal, CS: cs, AlphaVisc: 1, BetaVisc: 2}
	if cs == 0 {
		p.AlphaVisc, p.BetaVisc = 0, 0
	}

	var mu sync.Mutex
	var total diag.Counters
	merged := core.New(0)
	merged.EnableDynamics()
	merged.EnableSPH()
	inputs := make([]metrics.RankInput, procs)
	w := msg.NewWorld(procs)
	w.SetTrace(run)
	w.Run(func(c *msg.Comm) {
		global := ic.UniformSphere(n, 1.0, 99)
		global.EnableSPH()
		for i := range global.H {
			global.H[i] = 0.1
		}
		lo, hi := c.Rank()*n/c.Size(), (c.Rank()+1)*n/c.Size()
		local := core.New(0)
		local.EnableDynamics()
		local.EnableSPH()
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}

		e := sph.NewParallel(c, local, sph.ParallelConfig{
			Params: p, Gravity: true, Eps2: 1e-4,
		})
		if run != nil {
			e.EnableTrace(run.Rank(c.Rank()))
		}
		e.Stalls = stalls
		t0 := time.Now()
		ctr := e.Eval()
		if tel != nil {
			tel.Contribute(c.Rank(), e.Telemetry(time.Since(t0).Nanoseconds()))
		}
		for s := 0; s < steps; s++ {
			t0 = time.Now()
			ctr.Add(e.Step(dt))
			if tel != nil {
				tel.Contribute(c.Rank(), e.Telemetry(time.Since(t0).Nanoseconds()))
			}
		}

		mu.Lock()
		defer mu.Unlock()
		total.Add(ctr)
		inputs[c.Rank()] = e.Report()
		for i := 0; i < e.Sys.Len(); i++ {
			merged.AppendFrom(e.Sys, i)
		}
		if c.Rank() == 0 {
			fmt.Printf("rank 0 phase breakdown (cs=%.2f):\n", cs)
			for _, ph := range e.Timer.Phases() {
				fmt.Printf("  %-12s %v\n", ph, e.Timer.Get(ph))
			}
			fmt.Printf("  rounds=%d remoteCells=%d\n", e.Rounds, e.RemoteCells)
		}
	})
	return parallelRun{sys: merged, total: total, world: w, inputs: inputs}
}

// centralMassFraction returns the mass fraction within 0.1 of the
// center of mass.
func centralMassFraction(s *core.System) float64 {
	c := s.CenterOfMass()
	var m float64
	for i := 0; i < s.Len(); i++ {
		if s.Pos[i].Sub(c).Norm() < 0.1 {
			m += s.Mass[i]
		}
	}
	return m / s.TotalMass()
}
