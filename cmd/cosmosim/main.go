// Command cosmosim runs a scaled version of the paper's cosmological
// simulations: CDM initial conditions from a 3-D FFT realization,
// sphere-with-buffer geometry, parallel treecode evolution, striped
// snapshots, and a log-density projection image at the end.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/cliutil"
	"repro/internal/cosmo"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/msg"
	"repro/internal/parallel"
	"repro/internal/render"
	"repro/internal/runner"
	"repro/internal/snapio"
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
	watchdog := flag.Duration("watchdog", 0, "abort with a stall report after this long without progress (0 = off)")
	dtmode := flag.String("dtmode", "uniform", "time stepping: uniform (one rung) or block (hierarchical per-body sub-steps)")
	eta := flag.Float64("eta", 0.02, "block-timestep criterion scale: dt_i = eta*sqrt(eps/|a_i|)")
	obs := cliutil.ObsFlags("cosmosim")
	flag.Parse()
	if _, err := (cliutil.Flags{
		N: *grid, Procs: *procs, Steps: *steps, DTMode: *dtmode, Eta: *eta,
	}).Validate(); err != nil {
		cliutil.Fail("cosmosim", err)
	}

	r, err := cosmo.NewRealization(cosmo.Params{
		Grid: *grid, Box: 1.0, DeltaRMS: 0.25, ShapeGamma: 8, Seed: 12345,
	})
	if err != nil {
		obs.Log.Error("realization failed", "err", err)
		os.Exit(1)
	}
	full, h0 := r.ICs()
	sys := cosmo.SphereWithBuffer(full, vec.V3{}, 0.40, 0.50)
	fmt.Printf("ICs: %d of %d bodies in sphere+buffer, H0=%.3f\n", sys.Len(), full.Len(), h0)

	obs.Start(*procs, runner.Attachments{
		Watchdog: msg.WatchdogConfig{Quiet: *watchdog, Stacks: true, Log: obs.Log},
	})
	defer obs.Close()

	physics := runner.Gravity{
		MAC:  grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 3e-3, Quad: true},
		Eps2: 1e-6,
	}
	if *dtmode == "block" {
		physics.Eta = *eta
	}
	res := obs.Run(runner.Plan{
		NP: *procs, Steps: *steps, DT: 5e-4, System: sys, Physics: physics,
		OnStep: func(rank, s int, e runner.Engine, ctr diag.Counters) {
			if s >= 0 && (s%5 == 0 || s == *steps-1) {
				// Energy is a collective: every rank participates.
				kin, pot := e.(*parallel.Engine).Energy()
				if rank == 0 {
					fmt.Printf("step %3d: %d interactions, E = %.6f\n",
						s, ctr.Interactions(), kin+pot)
				}
			}
		},
	})
	out := res.Merged()
	fmt.Printf("done: %.1fs host, %d bodies, %.2f Gflops-equivalent\n",
		res.Wall.Seconds(), out.Len(), float64(res.Counters.Flops())/res.Wall.Seconds()/1e9)

	if *snapEvery > 0 {
		if err := snapio.WriteStriped(*outDir, "cosmo", out, float64(*steps), 4); err != nil {
			obs.Log.Error("snapshot write failed", "err", err)
			os.Exit(1)
		}
		fmt.Printf("wrote striped snapshot cosmo.* (4 stripes) in %s\n", *outDir)
	}
	if *image != "" {
		img := render.Project(out, vec.V3{}, 0.55, 512, 512)
		if err := img.WritePGM(*image); err != nil {
			obs.Log.Error("image write failed", "err", err)
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
