// Command treebench benchmarks the parallel hashed oct-tree on a
// clustered body distribution, printing interaction counts, host
// throughput, and modeled throughput on the paper's machines.
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/cliutil"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/perfmodel"
	"repro/internal/runner"
)

func main() {
	n := flag.Int("n", 100000, "number of bodies")
	procs := flag.Int("procs", 8, "simulated processors")
	steps := flag.Int("steps", 3, "timesteps")
	theta := flag.Float64("theta", 0, "Barnes-Hut opening angle (0 = use -atol)")
	atol := flag.Float64("atol", 1e-4, "Salmon-Warren acceleration error bound")
	bucket := flag.Int("bucket", 16, "tree leaf size")
	chaosSpec := flag.String("chaos", "", `fault injection spec, e.g. "seed=7,crash=0.001,crashphase=walk" (test harness; keys: seed, crash, crashphase, stall, stallphase, latency, reorder)`)
	watchdog := flag.Duration("watchdog", 0, "abort with a stall report after this long without progress (0 = off; chaos runs default to 5s)")
	dtmode := flag.String("dtmode", "uniform", "time stepping: uniform (one rung) or block (hierarchical per-body sub-steps)")
	eta := flag.Float64("eta", 0.02, "block-timestep criterion scale: dt_i = eta*sqrt(eps/|a_i|)")
	obs := cliutil.ObsFlags("treebench")
	flag.Parse()
	inj, err := cliutil.Flags{
		N: *n, Procs: *procs, Steps: *steps, DTMode: *dtmode, Eta: *eta,
		Chaos: *chaosSpec,
	}.Validate()
	if err != nil {
		cliutil.Fail("treebench", err)
	}
	if inj != nil && *watchdog == 0 {
		*watchdog = 5 * time.Second
	}
	obs.Start(*procs, runner.Attachments{
		Injector: inj,
		Watchdog: msg.WatchdogConfig{Quiet: *watchdog, Stacks: true, Log: obs.Log},
	})
	defer obs.Close()

	physics := runner.Gravity{
		MAC:    grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: *atol, Quad: true},
		Bucket: *bucket, Eps2: 1e-6,
	}
	if *theta > 0 {
		physics.MAC = grav.MACParams{Kind: grav.MACBarnesHut, Theta: *theta, Quad: true}
	}
	if *dtmode == "block" {
		physics.Eta = *eta
	}
	res := obs.Run(runner.Plan{
		NP: *procs, Steps: *steps, DT: 1e-3,
		System: ic.Plummer(*n, 1.0, 42), Physics: physics,
	})

	inter, flops, wall := res.Counters.Interactions(), res.Counters.Flops(), res.Wall.Seconds()
	evals := uint64(*steps + 1)
	fmt.Printf("N=%d procs=%d evaluations=%d\n", *n, *procs, evals)
	fmt.Printf("interactions: %d total, %.1f per body per evaluation (grouped)\n",
		inter, float64(inter)/float64(*n)/float64(evals))
	// Grouping buys speed with longer lists: the counted rate flatters it.
	perBody, grouped, sampled := res.PerBodyWalk(physics)
	fmt.Printf("interactions/body: %.1f (grouped), %.1f (per-body walk, sampled n=%d)\n",
		float64(grouped)/float64(sampled), float64(perBody)/float64(sampled), sampled)
	fmt.Printf("flops (38/interaction): %d\n", flops)
	gflops := float64(flops) / wall / 1e9
	fmt.Printf("host: %.2fs wall, %s kernels (%s), %.2f Gflops-equivalent counted, %.2f at the per-body walk's count\n",
		wall, grav.KernelPath(), grav.KernelBlock(), gflops, gflops*float64(perBody)/float64(grouped))
	comm := res.World.MaxRankTraffic()
	fmt.Printf("comm (max rank): %d msgs, %.2f MB\n", comm.Msgs, float64(comm.Bytes)/1e6)
	if *dtmode == "block" {
		var active, total uint64
		for _, in := range res.Ranks {
			active += in.Stepping.ActiveSinks
			total += in.Stepping.TotalSinks
		}
		st := res.Ranks[0].Stepping
		if total > 0 {
			fmt.Printf("block stepping: %d sub-steps (%d full + %d partial evals), active fraction %.4f\n",
				st.SubSteps, st.FullEvals, st.PartialEvals, float64(active)/float64(total))
		}
	}
	for _, m := range []*perfmodel.Machine{&perfmodel.Loki, &perfmodel.ASCIRed} {
		est := m.Model(flops, perfmodel.RegimeTreeEarly, comm)
		fmt.Printf("modeled on %s\n  %s\n", m.Name, est)
	}
}
