package runner

import (
	"errors"
	"io"
	"log/slog"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/parallel"
	"repro/internal/sph"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vortex"
)

var production = Gravity{
	MAC:  grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 3e-3, Quad: true},
	Eps2: 1e-6,
}

// scenes is one small plan per physics.
func scenes(np, steps int) map[string]Plan {
	return map[string]Plan{
		"gravity": {NP: np, Steps: steps, DT: 1e-3, System: ic.Plummer(300, 1.0, 42), Physics: production},
		"sph":     {NP: np, Steps: steps, DT: 4e-3, System: ic.GasSphere(200, 42), Physics: GasSphere(GasCS)},
		"vortex": {NP: np, Steps: steps, DT: 0.02, System: ic.RingPair(RingSigma, 12, RingCore),
			Physics: Vortex{Sigma: RingSigma, Theta: RingTheta}},
	}
}

// settled waits for the goroutine count to come back to before: a
// world's ranks and watchdog return a moment after Run does.
func settled(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the run, %d before it:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// stallsOf reads the Stalls field of the hotengine.Engine embedded in
// each adapter.
func stallsOf(t *testing.T, e Engine) *metrics.Histogram {
	switch e := e.(type) {
	case *parallel.Engine:
		return e.Stalls
	case *sph.ParallelEngine:
		return e.Stalls
	case *vortex.ParallelEngine:
		return e.Stalls
	}
	t.Errorf("unexpected engine type %T", e)
	return nil
}

// A run given a registry feeds that registry's stall histogram from
// every rank of every physics -- the service's walk_stall monitor reads
// it, and was blind while simserve armed the monitor without setting
// Stalls. (That a parked group observes into Stalls is hotengine's own
// test.) Without a registry the engines carry none.
func TestRegistryWiresStallHistogram(t *testing.T) {
	for name, plan := range scenes(2, 1) {
		for _, reg := range []*metrics.Registry{metrics.NewRegistry(), nil} {
			want := reg.Histogram(metrics.StallHistogram)
			var mu sync.Mutex
			seen := 0
			plan.OnStep = func(rank, step int, e Engine, _ diag.Counters) {
				mu.Lock()
				defer mu.Unlock()
				seen++
				if got := stallsOf(t, e); got != want {
					t.Errorf("%s rank %d step %d: engine Stalls = %p, want the registry's %p", name, rank, step, got, want)
				}
			}
			if _, err := Run(plan, Attachments{Registry: reg}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if seen != 2*2 { // two ranks, step -1 and step 0
				t.Errorf("%s: hook ran %d times, want 4", name, seen)
			}
		}
	}
}

// An injected crash in any physics comes back as the *msg.WorldError:
// no panic reaches the caller and every rank and the watchdog are gone.
// sphsim and vortexsim ran their world with World.Run, which re-raised.
func TestCrashIsAnErrorNotAPanic(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	for name, plan := range scenes(4, 2) {
		before := runtime.NumGoroutine()
		res, err := Run(plan, Attachments{
			Injector: &msg.Injector{Seed: 7, CrashProb: 1},
			Watchdog: msg.WatchdogConfig{Quiet: 30 * time.Second, Log: quiet},
		})
		var werr *msg.WorldError
		if !errors.As(err, &werr) || res != nil {
			t.Fatalf("%s: Run = (%v, %v), want a *msg.WorldError and no result", name, res, err)
		}
		var crash *msg.InjectedCrash
		if !errors.As(err, &crash) {
			t.Errorf("%s: cause %v is not the injected crash", name, werr.Cause)
		}
		settled(t, before)
	}
}

// The runner reads the plan's system and never writes it, which is
// what lets a caller generate its bodies once and hand them to every
// rank (sphsim regenerated them inside each) and to a second run: the
// slabs partition the system, and two runs of one plan agree bitwise.
func TestSystemIsScatteredNotConsumed(t *testing.T) {
	global := ic.GasSphere(50, 3)
	for _, np := range []int{1, 2, 3, 8, 64} {
		next := int64(0)
		for r := 0; r < np; r++ {
			s := slab(global, r, np)
			for i := 0; i < s.Len(); i++ {
				if s.ID[i] != next || s.Pos[i] != global.Pos[next] || s.H[i] != global.H[next] {
					t.Fatalf("np=%d rank %d body %d: got ID %d, want %d", np, r, i, s.ID[i], next)
				}
				next++
			}
		}
		if next != int64(global.Len()) {
			t.Fatalf("np=%d: slabs hold %d bodies, the system %d", np, next, global.Len())
		}
	}
	plan := scenes(3, 2)["sph"]
	pos := append(plan.System.Pos[:0:0], plan.System.Pos...)
	var hashes [2]string
	for i := range hashes {
		res, err := Run(plan, Attachments{})
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = ForcesHash(res.Systems, false)
	}
	if hashes[0] != hashes[1] {
		t.Errorf("second run of the same plan: hash %s, first %s", hashes[1], hashes[0])
	}
	for i, p := range plan.System.Pos {
		if p != pos[i] {
			t.Fatalf("Run moved body %d of the plan's system", i)
		}
	}
}

// The cosmosim shape -- bodies from the caller, a collective Energy()
// inside the per-step hook -- against the loop written out by hand, at
// 1, 2 and 8 ranks: same forces bit for bit, same energies, same
// per-step counters, same traffic.
func TestHookedPlanMatchesHandWrittenLoop(t *testing.T) {
	const n, steps, dt = 400, 3, 5e-4
	global := ic.Plummer(n, 1.0, 11)
	for _, np := range []int{1, 2, 8} {
		type sample struct {
			e     float64
			inter uint64
		}
		// By hand.
		want := make([]sample, steps)
		systems := make([]*core.System, np)
		w := msg.NewWorld(np)
		if werr := w.RunErr(func(c *msg.Comm) {
			local := core.New(0)
			local.EnableDynamics()
			lo, hi := c.Rank()*n/np, (c.Rank()+1)*n/np
			for i := lo; i < hi; i++ {
				local.AppendFrom(global, i)
			}
			e := parallel.New(c, local, parallel.Config{MAC: production.MAC, Eps2: production.Eps2})
			e.ComputeForces()
			for s := 0; s < steps; s++ {
				ctr := e.Step(dt)
				kin, pot := e.Energy()
				if c.Rank() == 0 {
					want[s] = sample{kin + pot, ctr.Interactions()}
				}
			}
			systems[c.Rank()] = e.Sys
		}); werr != nil {
			t.Fatalf("np=%d reference: %v", np, werr)
		}

		got := make([]sample, steps)
		res, err := Run(Plan{
			NP: np, Steps: steps, DT: dt, System: global, Physics: production,
			OnStep: func(rank, s int, e Engine, ctr diag.Counters) {
				if s < 0 {
					return
				}
				kin, pot := e.(*parallel.Engine).Energy()
				if rank == 0 {
					got[s] = sample{kin + pot, ctr.Interactions()}
				}
			},
		}, Attachments{})
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
		if a, b := ForcesHash(res.Systems, false), ForcesHash(systems, false); a != b {
			t.Errorf("np=%d: runner forces %s, hand-written loop %s", np, a, b)
		}
		for s := range want {
			if got[s] != want[s] {
				t.Errorf("np=%d step %d: runner (E, interactions) = %v, by hand %v", np, s, got[s], want[s])
			}
		}
		if a, b := res.World.TotalTraffic(), w.TotalTraffic(); a != b {
			t.Errorf("np=%d: runner traffic %+v, by hand %+v", np, a, b)
		}
		if res.Bodies() != n || res.Merged().Len() != n {
			t.Errorf("np=%d: %d bodies gathered (%d merged), want %d", np, res.Bodies(), res.Merged().Len(), n)
		}
	}
}

// A run with every attachment on leaves no goroutine behind, samples
// once per evaluation, and gathers per-rank report inputs that are the
// engines' own counters.
func TestFullyAttachedRun(t *testing.T) {
	const np, steps = 4, 2
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	for name, plan := range scenes(np, steps) {
		before := runtime.NumGoroutine()
		run, reg := trace.NewRun(np), metrics.NewRegistry()
		tel := telemetry.NewSampler(telemetry.Config{NP: np, Registry: reg, Trace: run})
		engines := make([]diag.Counters, np)
		var handed *msg.World
		plan.OnStep = func(rank, step int, e Engine, _ diag.Counters) {
			if step == steps-1 {
				engines[rank] = e.Record().Counters
			}
		}
		res, err := Run(plan, Attachments{
			Trace: run, Registry: reg, Sampler: tel,
			Watchdog: msg.WatchdogConfig{Quiet: 30 * time.Second, Log: quiet},
			OnWorld:  func(w *msg.World) error { handed = w; return nil },
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if handed != res.World {
			t.Errorf("%s: OnWorld was handed %p, the run's world is %p", name, handed, res.World)
		}
		evals := steps + 1
		if name == "vortex" { // no first evaluation
			evals = steps
		}
		if got := len(tel.Samples(0)); got != evals {
			t.Errorf("%s: %d samples, want one per evaluation = %d", name, got, evals)
		}
		if len(run.Events()) == 0 {
			t.Errorf("%s: the trace run recorded nothing", name)
		}
		rep := metrics.BuildReport(name, res.Wall.Seconds(), res.Ranks, res.World, reg)
		var total diag.Counters
		for r, rr := range rep.Ranks {
			if rr.Counters != engines[r] || rr.Counters.Flops() == 0 {
				t.Errorf("%s rank %d: report counters %+v, the engine's %+v", name, r, rr.Counters, engines[r])
			}
			total.Add(engines[r])
		}
		if res.Counters != total || rep.Totals.Counters != total {
			t.Errorf("%s: summed counters %+v (report %+v), the engines' sum %+v", name, res.Counters, rep.Totals.Counters, total)
		}
		// Every rank enters the same collectives, so the step's count is
		// one number: in each rank's row, in the totals and in the last
		// sample of the series.
		last, _ := tel.Last()
		for r, rr := range rep.Ranks {
			if rr.Collectives == 0 || rr.Collectives != rep.Totals.CollectivesPerStep || rr.Collectives != last.Collectives {
				t.Errorf("%s rank %d: %d collectives in the last step, totals say %d, the series %d", name, r,
					rr.Collectives, rep.Totals.CollectivesPerStep, last.Collectives)
			}
		}
		if _, ok := rep.Histograms[metrics.StallHistogram]; !ok {
			t.Errorf("%s: report has no %s histogram", name, metrics.StallHistogram)
		}
		tel.Close() // the caller's: Run must not have closed it
		settled(t, before)
	}
}

// The live /report and the exit RunReport are one function over one
// record, so after the last step they agree on everything a rank
// describes -- counters, phase names and their first-start order,
// rounds, traffic, the stepping section -- for every physics and
// stepping mode. They were two translations of two structs: the live
// one had no stepping section and sorted its phases.
func TestLiveReportMatchesFinalReport(t *testing.T) {
	plans := scenes(0, 2)
	block := plans["gravity"]
	g := production
	g.Eta = 0.02
	block.Physics = g
	plans["gravity-block"] = block
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	for name, plan := range plans {
		for _, np := range []int{1, 2} {
			plan.NP = np
			run, reg := trace.NewRun(np), metrics.NewRegistry()
			tel := telemetry.NewSampler(telemetry.Config{NP: np, Registry: reg, Trace: run, Command: name})
			// Mid-run the report is readable from any goroutine while the
			// other ranks contribute, and already has the run's shape.
			plan.OnStep = func(rank, step int, _ Engine, _ diag.Counters) {
				if rank == 0 && step == 0 {
					if rep := tel.LiveReport(); (rep.Stepping != nil) != strings.HasPrefix(name, "gravity") {
						t.Errorf("%s np=%d: mid-run stepping section = %+v", name, np, rep.Stepping)
					}
				}
			}
			res, err := Run(plan, Attachments{
				Trace: run, Registry: reg, Sampler: tel,
				Watchdog: msg.WatchdogConfig{Quiet: 30 * time.Second, Log: quiet},
			})
			if err != nil {
				t.Fatalf("%s np=%d: %v", name, np, err)
			}
			live := tel.LiveReport()
			final := metrics.BuildReport(name, res.Wall.Seconds(), res.Ranks, res.World, reg)
			tel.Close()

			phases := func(rep *metrics.RunReport) (names []string) {
				for _, pb := range rep.Phases {
					names = append(names, pb.Phase)
				}
				return names
			}
			if l, f := phases(live), phases(final); len(f) == 0 || !slices.Equal(l, f) {
				t.Errorf("%s np=%d: live phase_balance %v, final %v", name, np, l, f)
			}
			if !reflect.DeepEqual(live.Stepping, final.Stepping) {
				t.Errorf("%s np=%d: live stepping %+v, final %+v", name, np, live.Stepping, final.Stepping)
			}
			if name == "gravity-block" && (final.Stepping == nil || final.Stepping.Mode != "block" ||
				final.Stepping.PartialEvals == 0 || len(final.Stepping.RungOccupancy) < 2) {
				t.Errorf("%s np=%d: stepping %+v, want block sub-steps over several rungs", name, np, final.Stepping)
			}
			if live.Bodies != final.Bodies || live.Totals.Counters != final.Totals.Counters ||
				live.Totals.Msgs != final.Totals.Msgs || live.Totals.Bytes != final.Totals.Bytes ||
				live.Totals.CollectivesPerStep != final.Totals.CollectivesPerStep {
				t.Errorf("%s np=%d: live bodies %d totals %+v, final bodies %d totals %+v", name, np,
					live.Bodies, live.Totals, final.Bodies, final.Totals)
			}
			if wt := res.World.TotalTraffic(); final.Totals.Msgs != wt.Msgs || final.Totals.Bytes != wt.Bytes {
				t.Errorf("%s np=%d: report traffic %d/%d, the world's %+v", name, np, final.Totals.Msgs, final.Totals.Bytes, wt)
			}
			for r, f := range final.Ranks {
				l := live.Ranks[r]
				f.Traffic = nil // per phase: only the finished world has it
				if !reflect.DeepEqual(l, f) {
					t.Errorf("%s np=%d rank %d:\nlive  %+v\nfinal %+v", name, np, r, l, f)
				}
			}
		}
	}
}

// A refusal from OnWorld is Run's error, and nothing ran.
func TestOnWorldRefusal(t *testing.T) {
	before := runtime.NumGoroutine()
	refused := errors.New("cancelled before start")
	plan := scenes(2, 1)["gravity"]
	plan.OnStep = func(int, int, Engine, diag.Counters) { t.Error("a rank ran after OnWorld refused") }
	res, err := Run(plan, Attachments{
		Watchdog: msg.WatchdogConfig{Quiet: time.Hour},
		OnWorld:  func(*msg.World) error { return refused },
	})
	if res != nil || !errors.Is(err, refused) {
		t.Fatalf("Run = (%v, %v), want the refusal", res, err)
	}
	settled(t, before)
}

// The per-body walk sample of a finished gravity run: every 64th body,
// the grouped count within a few percent of what the run's own counters
// say a body was charged (another tree: one rank's, no force-splits),
// and the per-body count below it.
func TestPerBodyWalkOfARun(t *testing.T) {
	p := Plan{NP: 2, Steps: 0, System: ic.Plummer(2000, 1.0, 42), Physics: production}
	res, err := Run(p, Attachments{})
	if err != nil {
		t.Fatal(err)
	}
	perBody, grouped, sampled := res.PerBodyWalk(production)
	if sampled != (2000+63)/64 {
		t.Fatalf("sampled %d bodies of 2000, want every 64th", sampled)
	}
	ran := float64(res.Counters.Interactions()) / 2000
	if got := float64(grouped) / float64(sampled); got < 0.9*ran || got > 1.1*ran {
		t.Fatalf("grouped walk charges a sampled body %.1f interactions, the run charged %.1f", got, ran)
	}
	if perBody == 0 || perBody >= grouped {
		t.Fatalf("per-body walk counts %d, grouped %d: want fewer, and some", perBody, grouped)
	}
}
