// Package experiments reproduces, one function per table or figure,
// every quantitative result in the paper's evaluation. Each function
// runs real code at laptop scale (the full algorithm, smaller N),
// counts work exactly as the paper does (interactions x 38 flops),
// and projects onto the paper's machines with internal/perfmodel.
// The returned structs pair the paper's number with ours so the
// harness (cmd/paperrepro, bench_test.go, EXPERIMENTS.md) can print
// paper-vs-measured rows.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/diag"
	"repro/internal/direct"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/perfmodel"
	"repro/internal/runner"
	"repro/internal/vec"
	"repro/internal/vortex"
)

// Row is one paper-vs-reproduction comparison.
type Row struct {
	ID       string
	Quantity string
	Paper    float64
	Ours     float64
	Unit     string
	Note     string
}

func (r Row) String() string {
	return fmt.Sprintf("%-5s %-38s paper %12.4g %-8s ours %12.4g %-8s %s",
		r.ID, r.Quantity, r.Paper, r.Unit, r.Ours, r.Unit, r.Note)
}

// Ratio returns ours/paper, the headline "shape" metric.
func (r Row) Ratio() float64 {
	if r.Paper == 0 {
		return 0
	}
	return r.Ours / r.Paper
}

// cosmoSystem builds the scaled sphere-with-buffer CDM initial
// conditions shared by E2/E3/F1/F2.
func cosmoSystem(grid int, seed int64) *core.System {
	r, err := cosmo.NewRealization(cosmo.Params{
		Grid: grid, Box: 1.0, DeltaRMS: 0.25, ShapeGamma: 8, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	sys, _ := r.ICs()
	// Paper geometry: high-res sphere of diameter 0.8 box, buffer to
	// the box edge (8x mass), mirroring the 160/200 Mpc setup.
	return cosmo.SphereWithBuffer(sys, vec.V3{}, 0.40, 0.50)
}

// runTreecode runs the parallel treecode for steps timesteps on procs
// simulated ranks and returns the total counters plus interactions
// per body per step.
func runTreecode(sys *core.System, procs, steps int, aTol float64) (diag.Counters, float64, float64) {
	res := evolve(sys, procs, steps, aTol)
	perBodyStep := float64(res.Counters.Interactions()) / float64(sys.Len()) / float64(steps+1)
	return res.Counters, perBodyStep, res.Wall.Seconds()
}

// evolve is the cosmology runs' plan: quadrupole Salmon-Warren gravity
// at the production softening and timestep. No caller here has an
// error path, so a failed world panics with its *msg.WorldError.
func evolve(sys *core.System, procs, steps int, aTol float64) *runner.Result {
	res, err := runner.Run(runner.Plan{
		NP: procs, Steps: steps, DT: 5e-4, System: sys, Physics: gravityAt(aTol),
	}, runner.Attachments{})
	if err != nil {
		panic(err)
	}
	return res
}

// gravityAt is the cosmology runs' physics at acceleration tolerance aTol.
func gravityAt(aTol float64) runner.Gravity {
	return runner.Gravity{
		MAC:  grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: aTol, Quad: true},
		Eps2: 1e-6,
	}
}

// --- E1: the 1M-body O(N^2) benchmark (635 Gflops) ---------------------

// E1Result compares the direct-sum benchmark.
type E1Result struct {
	Rows        []Row
	HostSeconds float64
}

// E1 runs the ring-decomposed O(N^2) solver at a scaled N, verifies
// the interaction count is exactly N(N-1)steps, and projects the
// paper's N = 1e6, 4 steps onto ASCI Red.
func E1(n, procs, steps int) E1Result {
	sys := core.New(n)
	sys.EnableDynamics()
	g := newRand(1)
	for i := 0; i < n; i++ {
		sys.Pos[i] = vec.V3{X: g(), Y: g(), Z: g()}
		sys.Mass[i] = 1.0 / float64(n)
	}
	start := time.Now()
	pp := direct.RingRun(procs, steps, sys.Pos, sys.Mass, 1e-6)
	host := time.Since(start).Seconds()

	// Paper's benchmark: counts N*N (not N(N-1)) per step.
	paperFlops := uint64(4) * 38 * 1_000_000 * 1_000_000
	est := perfmodel.ASCIRed.Model(paperFlops, perfmodel.RegimeKernel, msg.PhaseTraffic{})
	hostGflops := float64(pp) * 38 / host / 1e9
	return E1Result{
		HostSeconds: host,
		Rows: []Row{
			{ID: "E1", Quantity: "O(N^2) 1M bodies on ASCI Red", Paper: 635, Ours: est.Gflops, Unit: "Gflops",
				Note: fmt.Sprintf("host run: N=%d, %d ranks, %.0f interactions, %.2f Gflops measured", n, procs, float64(pp), hostGflops)},
			{ID: "E1", Quantity: "O(N^2) benchmark wall-clock", Paper: 239.3, Ours: est.TotalSec, Unit: "s",
				Note: "modeled from counted flops at the calibrated kernel rate"},
		},
	}
}

// --- E2: the 322M-body treecode (430/170 Gflops, 10^5 ratio) -----------

// E2Result compares the big treecode run.
type E2Result struct {
	Rows        []Row
	PerBodyStep float64
}

// E2 runs the scaled cosmology treecode, extrapolates the measured
// interactions-per-body to the paper's N, and models both the 6800-
// processor peak and the 4096-processor sustained phases. The count it
// extrapolates is the grouped walk's; the peak row's note puts the
// per-body walk's beside it (GRAPE-5's correction: the paper timed one
// walk per body, and grouping lengthens the lists).
func E2(grid, procs, steps int) E2Result {
	sys := cosmoSystem(grid, 2)
	n := sys.Len()
	res := evolve(sys, procs, steps, 3e-3)
	perBody := float64(res.Counters.Interactions()) / float64(n) / float64(steps+1)
	walk, grouped, sampled := res.PerBodyWalk(gravityAt(3e-3))

	const paperN = 322_159_436.0
	perBodyPaper := perfmodel.ScaleInteractions(perBody, float64(n), paperN)

	// Peak: 5 steps on 6800 procs; paper counted 7.18e12 interactions.
	peakInter := perBodyPaper * paperN * 5
	est5 := perfmodel.ASCIRed.Model(uint64(peakInter)*38, perfmodel.RegimeTreeEarly, msg.PhaseTraffic{})
	// Sustained: 287 steps on 4096 procs; paper counted 1.52e14.
	susInter := perBodyPaper * paperN * 287
	estS := perfmodel.ASCIRed4096.Model(uint64(susInter)*38, perfmodel.RegimeTreeClustered, msg.PhaseTraffic{})

	return E2Result{
		PerBodyStep: perBody,
		Rows: []Row{
			{ID: "E2b", Quantity: "treecode peak (6800 procs, 5 steps)", Paper: 431, Ours: est5.Gflops, Unit: "Gflops",
				Note: fmt.Sprintf("measured %.0f inter/body/step at N=%d (grouped; per-body walk %.0f vs grouped %.0f on %d sampled bodies) -> %.0f at N=322M (paper: %.0f)",
					perBody, n, float64(walk)/float64(sampled), float64(grouped)/float64(sampled), sampled, perBodyPaper, 7.18e12/paperN/5)},
			{ID: "E2a", Quantity: "treecode sustained (4096 procs)", Paper: 170, Ours: estS.Gflops, Unit: "Gflops",
				Note: fmt.Sprintf("modeled %.1f h for 287 steps (paper 9.4 h)", estS.TotalSec/3600)},
			{ID: "E2c", Quantity: "treecode/N^2 efficiency ratio at 322M", Paper: 1e5,
				Ours: paperN / perBodyPaper, Unit: "x",
				Note: "N interactions/body direct vs measured treecode interactions/body"},
		},
	}
}

// --- E3: Loki's 9.75M-body run (879 Mflops, $58/Mflop) ------------------

// E3 models the Loki run from the same measured treecode profile.
func E3(grid, steps int) []Row {
	sys := cosmoSystem(grid, 3)
	n := sys.Len()
	_, perBody, _ := runTreecode(sys, 16, steps, 3e-3)
	const paperN = 9_753_824.0
	perBodyPaper := perfmodel.ScaleInteractions(perBody, float64(n), paperN)

	// Early: 30 steps (paper counted 1.15e12 interactions, 1.19 Gflops).
	early := perfmodel.Loki.Model(uint64(perBodyPaper*paperN*30)*38, perfmodel.RegimeTreeEarly, msg.PhaseTraffic{})
	// Sustained: 750 steps to April 30 (1.97e13 interactions, 879 Mflops).
	sus := perfmodel.Loki.Model(uint64(perBodyPaper*paperN*750)*38, perfmodel.RegimeTreeClustered, msg.PhaseTraffic{})
	return []Row{
		{ID: "E3", Quantity: "Loki initial 30 steps", Paper: 1.19, Ours: early.Gflops, Unit: "Gflops",
			Note: fmt.Sprintf("measured %.0f inter/body/step at N=%d", perBody, n)},
		{ID: "E3", Quantity: "Loki 10-day sustained", Paper: 0.879, Ours: sus.Gflops, Unit: "Gflops",
			Note: fmt.Sprintf("modeled %.1f days (paper 9.8)", sus.TotalSec/86400)},
		{ID: "E3", Quantity: "Loki price/performance", Paper: 58, Ours: perfmodel.PricePerMflop(perfmodel.Loki.PriceUSD, sus.Gflops*1e3), Unit: "$/Mflop"},
	}
}

// --- E4: Hyglac's vortex ring fusion (950 Mflops) -----------------------

// E4 runs the scaled two-ring fusion on Hyglac's 16 ranks, remeshing
// once halfway, counts kernel flops exactly, and models the paper's
// 20-hour Hyglac run.
func E4(nTheta, nCore, steps int) []Row {
	sys := ic.RingPair(runner.RingSigma, nTheta, nCore)
	res, err := runner.Run(runner.Plan{
		NP: 16, Steps: steps, DT: 0.02, System: sys,
		Physics: runner.Vortex{Sigma: runner.RingSigma, Theta: runner.RingTheta},
		OnStep: func(_, s int, e runner.Engine, _ diag.Counters) {
			if s == steps/2 {
				e.(*vortex.ParallelEngine).Remesh(runner.RingSigma/2, 1e-4)
			}
		},
	}, runner.Attachments{})
	if err != nil {
		panic(err)
	}
	n := res.Bodies()
	// Scale to the paper's particle counts (57k -> 360k over 340
	// steps; use the geometric mean 143k for the sustained phase).
	perBodyStep := float64(res.Counters.VortexPP) / float64(n) / float64(steps)
	paperInterPerStep := perfmodel.ScaleInteractions(perBodyStep, float64(n), 143_000) * 143_000
	flops := uint64(paperInterPerStep*340) * diag.FlopsPerVortexInteract
	est := perfmodel.Hyglac.Model(flops, perfmodel.RegimeTreeClustered, msg.PhaseTraffic{})
	// Duration check: feed the paper's own measured flop total
	// (950 Mflops x 20 h) through the machine model -- our scaled run
	// does genuinely less work per body (its cores hold far fewer
	// particles), so the duration validates the model, not the
	// extrapolation.
	paperFlops := uint64(0.950e9 * 20 * 3600)
	durEst := perfmodel.Hyglac.Model(paperFlops, perfmodel.RegimeTreeClustered, msg.PhaseTraffic{})
	return []Row{
		{ID: "E4", Quantity: "Hyglac vortex ring fusion", Paper: 0.950, Ours: est.Gflops, Unit: "Gflops",
			Note: fmt.Sprintf("scaled run on 16 ranks: %d->%d particles, %.0f inter/body/step", sys.Len(), n, perBodyStep)},
		{ID: "E4", Quantity: "ring fusion duration", Paper: 20, Ours: durEst.TotalSec / 3600, Unit: "hours",
			Note: "paper's flop total through the Hyglac machine model"},
	}
}

// --- E5: SC'96 combined machine (2.19 Gflops, $47/Mflop) ----------------

// E5 models the 10M-body benchmark on the combined 32-processor
// system.
func E5(grid, steps int) []Row {
	sys := cosmoSystem(grid, 5)
	n := sys.Len()
	_, perBody, _ := runTreecode(sys, 32, steps, 3e-3)
	const paperN = 10_000_000.0
	perBodyPaper := perfmodel.ScaleInteractions(perBody, float64(n), paperN)
	// Benchmark: one force evaluation.
	est := perfmodel.SC96.Model(uint64(perBodyPaper*paperN)*38, perfmodel.RegimeTreeEarly, msg.PhaseTraffic{})
	return []Row{
		{ID: "E5", Quantity: "SC'96 Loki+Hyglac benchmark", Paper: 2.19, Ours: est.Gflops, Unit: "Gflops"},
		{ID: "E5", Quantity: "SC'96 price/performance", Paper: 47,
			Ours: perfmodel.PricePerMflop(perfmodel.SC96.PriceUSD, est.Gflops*1e3), Unit: "$/Mflop"},
	}
}

// --- E6: particles updated per second -----------------------------------

// E6 compares update rates of the two algorithms at the paper's scale.
func E6(grid, procs, steps int) []Row {
	sys := cosmoSystem(grid, 6)
	n := sys.Len()
	_, perBody, _ := runTreecode(sys, procs, steps, 3e-3)
	const paperN = 322_159_436.0
	perBodyPaper := perfmodel.ScaleInteractions(perBody, float64(n), paperN)

	treeStep := perfmodel.ASCIRed.Model(uint64(perBodyPaper*paperN)*38, perfmodel.RegimeTreeClustered, msg.PhaseTraffic{})
	treeRate := paperN / treeStep.TotalSec
	directStep := perfmodel.ASCIRed.Model(uint64(paperN*paperN)*38, perfmodel.RegimeKernel, msg.PhaseTraffic{})
	directRate := paperN / directStep.TotalSec
	return []Row{
		{ID: "E6", Quantity: "treecode particle updates/s (322M)", Paper: 3e6, Ours: treeRate, Unit: "1/s"},
		{ID: "E6", Quantity: "N^2 particle updates/s (322M)", Paper: 52, Ours: directRate, Unit: "1/s"},
	}
}

// newRand is a tiny deterministic generator for E1's uniform cloud
// (decoupled from math/rand for stability of recorded outputs).
func newRand(seed uint64) func() float64 {
	s := seed*2862933555777941757 + 3037000493
	return func() float64 {
		s = s*2862933555777941757 + 3037000493
		return float64(s>>11) / float64(1<<53)
	}
}
