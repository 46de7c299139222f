// Galaxy formation: a scaled version of the paper's production
// cosmology runs. Cold Dark Matter initial conditions are realized
// with a 3-D FFT (BBKS spectrum, Zel'dovich displacements), carved
// into the paper's sphere-with-buffer geometry (8x-mass boundary
// particles), evolved with the parallel treecode on 8 simulated
// processors, and rendered as the log-density projection of
// Figures 1-2.
package main

import (
	"fmt"
	"log"

	"repro/internal/cosmo"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/render"
	"repro/internal/runner"
	"repro/internal/vec"
)

func main() {
	// 32^3 lattice: ~33k particles, ~17k inside the sphere+buffer.
	real, err := cosmo.NewRealization(cosmo.Params{
		Grid: 32, Box: 1.0, DeltaRMS: 0.25, ShapeGamma: 8, Seed: 2025,
	})
	if err != nil {
		log.Fatal(err)
	}
	full, h0 := real.ICs()
	sys := cosmo.SphereWithBuffer(full, vec.V3{}, 0.40, 0.50)
	fmt.Printf("CDM realization: %d lattice particles, H0 = %.3f\n", full.Len(), h0)
	fmt.Printf("sphere+buffer: %d bodies (buffer particles carry 8x mass)\n\n", sys.Len())

	res, err := runner.Run(runner.Plan{
		NP: 8, Steps: 12, DT: 5e-4, System: sys,
		Physics: runner.Gravity{
			MAC:  grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 3e-3, Quad: true},
			Eps2: 1e-6,
		},
		OnStep: func(rank, s int, e runner.Engine, ctr diag.Counters) {
			if rank == 0 && s >= 0 && s%4 == 0 {
				in := e.Record()
				fmt.Printf("step %2d: %9d interactions, %6d cells imported so far\n",
					s, ctr.Interactions(), in.RemoteCells)
			}
		},
	}, runner.Attachments{})
	if err != nil {
		log.Fatal(err)
	}
	out := res.Merged()
	img := render.Project(out, vec.V3{}, 0.55, 512, 512)
	if err := img.WritePGM("galaxy.pgm"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote galaxy.pgm: log projected density, cf. the paper's Figures 1-2")
}
