package parallel

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/integrate"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vec"
)

// run4 executes evals force evaluations on a 4-rank world and returns
// the world and engines. tr, when non-nil, traces every rank.
func run4(t *testing.T, n, evals int, tr *trace.Run) (*msg.World, []*Engine) {
	t.Helper()
	const np = 4
	mac := grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true}
	engines := make([]*Engine, np)
	w := msg.NewWorld(np)
	w.SetTrace(tr)
	var mu sync.Mutex
	w.Run(func(c *msg.Comm) {
		global := ic.Plummer(n, 1.0, 23)
		local := core.New(0)
		local.EnableDynamics()
		lo, hi := c.Rank()*n/c.Size(), (c.Rank()+1)*n/c.Size()
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}
		e := New(c, local, Config{MAC: mac, Eps2: 1e-6})
		e.Observe(tr.Rank(c.Rank()))
		for k := 0; k < evals; k++ {
			e.ComputeForces()
		}
		mu.Lock()
		engines[c.Rank()] = e
		mu.Unlock()
	})
	return w, engines
}

// The per-phase traffic attribution the machine models (and now the
// RunReport) depend on: on a 4-rank run, every byte a rank sends is
// attributed to exactly one phase, so the per-phase records sum to
// the rank's total, and the comm-matrix row sums agree with both.
func TestPhaseTrafficAttributionSumsToTotals(t *testing.T) {
	w, engines := run4(t, 1500, 2, nil)

	matMsgs, matBytes := w.CommMatrix()
	var worldMsgs, worldBytes uint64
	for r := 0; r < 4; r++ {
		tr := w.RankTraffic(r)
		var phMsgs, phBytes uint64
		for _, pt := range tr.Phases {
			phMsgs += pt.Msgs
			phBytes += pt.Bytes
		}
		tot := tr.Total()
		if phMsgs != tot.Msgs || phBytes != tot.Bytes {
			t.Fatalf("rank %d: phase sums (%d msgs, %d B) != totals (%d msgs, %d B)",
				r, phMsgs, phBytes, tot.Msgs, tot.Bytes)
		}
		var rowMsgs, rowBytes uint64
		for d := 0; d < 4; d++ {
			rowMsgs += matMsgs[r][d]
			rowBytes += matBytes[r][d]
		}
		if rowMsgs != tot.Msgs || rowBytes != tot.Bytes {
			t.Fatalf("rank %d: comm-matrix row (%d msgs, %d B) != totals (%d msgs, %d B)",
				r, rowMsgs, rowBytes, tot.Msgs, tot.Bytes)
		}
		worldMsgs += tot.Msgs
		worldBytes += tot.Bytes

		// The pipeline phases must carry the traffic: branch exchange
		// always, and the walk phase whenever remote cells were
		// fetched.
		if tr.Phases["branches"] == nil || tr.Phases["branches"].Bytes == 0 {
			t.Fatalf("rank %d: no bytes attributed to the branches phase", r)
		}
		if engines[r].RemoteCells > 0 {
			if tr.Phases["walk"] == nil || tr.Phases["walk"].Bytes == 0 {
				t.Fatalf("rank %d: %d remote cells but no walk-phase bytes",
					r, engines[r].RemoteCells)
			}
		}
	}
	wt := w.TotalTraffic()
	if wt.Msgs != worldMsgs || wt.Bytes != worldBytes {
		t.Fatalf("world totals (%d, %d) != per-rank sums (%d, %d)",
			wt.Msgs, wt.Bytes, worldMsgs, worldBytes)
	}
}

// A RunReport is the counters and traffic records re-expressed: every
// number must match the diag.Counters and msg totals exactly, and
// instrumentation must not perturb the forces -- a traced run is
// byte-identical to an untraced one.
func TestRunReportMatchesCountersAndForcesUnchanged(t *testing.T) {
	const n = 1500

	// Untraced reference run.
	_, ref := run4(t, n, 1, nil)
	refAcc := map[int64]vec.V3{}
	for _, e := range ref {
		for i := 0; i < e.Sys.Len(); i++ {
			refAcc[e.Sys.ID[i]] = e.Sys.Acc[i]
		}
	}

	// Fully instrumented run: tracing, registry.
	reg := metrics.NewRegistry()
	tr := trace.NewRun(4)
	w, engines := run4(t, n, 1, tr)

	seen := 0
	for _, e := range engines {
		for i := 0; i < e.Sys.Len(); i++ {
			if e.Sys.Acc[i] != refAcc[e.Sys.ID[i]] {
				t.Fatalf("tracing changed forces: body %d", e.Sys.ID[i])
			}
			seen++
		}
	}
	if seen != n {
		t.Fatalf("compared %d of %d bodies", seen, n)
	}

	inputs := make([]metrics.RankInput, len(engines))
	var want diag.Counters
	var deferredTotal uint64
	for r, e := range engines {
		inputs[r] = e.Record()
		want.Add(e.Counters)
		deferredTotal += e.Park.Deferred
	}
	rep := metrics.BuildReport("test", 1.0, inputs, w, reg)

	if rep.Totals.Counters != want {
		t.Fatalf("report counters %+v != engine counters %+v", rep.Totals.Counters, want)
	}
	if rep.Totals.Interactions != want.Interactions() || rep.Totals.Flops != want.Flops() {
		t.Fatal("report totals disagree with counter arithmetic")
	}
	wt := w.TotalTraffic()
	if rep.Totals.Msgs != wt.Msgs || rep.Totals.Bytes != wt.Bytes {
		t.Fatal("report traffic totals disagree with the world")
	}
	for r, rr := range rep.Ranks {
		if rr.Counters != engines[r].Counters {
			t.Fatalf("rank %d counters differ in report", r)
		}
		tot := w.RankTraffic(r).Total()
		if rr.SentMsgs != tot.Msgs || rr.SentBytes != tot.Bytes {
			t.Fatalf("rank %d traffic differs in report", r)
		}
	}

	// A healthy 4-rank run is pushed everything it opens: nothing is
	// deferred, and each rank's counters in the report carry what it
	// was pushed and what of that it used.
	if deferredTotal != 0 {
		t.Fatalf("healthy run deferred %d groups", deferredTotal)
	}
	if hr := rep.Totals.PushHitRate; hr <= 0 || hr > 1 {
		t.Fatalf("push_hit_rate %v, want in (0, 1]", hr)
	}
	for r, rr := range rep.Ranks {
		if c := rr.Counters; c.Pushed == 0 || c.PushUsed == 0 || c.PushUsed > c.Pushed {
			t.Fatalf("rank %d report row: pushed %d used %d", r, c.Pushed, c.PushUsed)
		}
	}

	// The live view of the same run: every default monitor stays
	// silent, and /series carries the push.
	tel := telemetry.NewSampler(telemetry.Config{NP: len(engines), Registry: reg, Monitors: telemetry.DefaultMonitors()})
	defer tel.Close()
	for r, in := range inputs {
		in.StepNs = 1e6
		tel.Contribute(r, in)
	}
	smp, ok := tel.Last()
	if evs := tel.Events(); !ok || len(evs) != 0 {
		t.Fatalf("healthy run fired %+v (sample assembled: %v)", evs, ok)
	}
	if smp.Pushed != want.Pushed || smp.PushUsed != want.PushUsed {
		t.Fatalf("sample: pushed %d used %d; want %d, %d", smp.Pushed, smp.PushUsed, want.Pushed, want.PushUsed)
	}

	// Phase balance covers the pipeline phases with sane statistics.
	phases := map[string]metrics.PhaseBalance{}
	for _, pb := range rep.Phases {
		phases[pb.Phase] = pb
	}
	for _, ph := range []string{"decompose", "treebuild", "branches", "walk"} {
		pb, ok := phases[ph]
		if !ok {
			t.Fatalf("phase %q missing from report balance", ph)
		}
		if pb.Max < pb.Min || pb.Efficiency <= 0 || pb.Efficiency > 1 {
			t.Fatalf("phase %q balance insane: %+v", ph, pb)
		}
	}

	// The trace saw phase spans on every rank and send events whose
	// byte totals match the traffic record (ring large enough here).
	for r := 0; r < 4; r++ {
		var sentBytes uint64
		spans := map[string]bool{}
		for _, ev := range tr.Rank(r).Events() {
			switch ev.Kind {
			case trace.KindSpan:
				spans[ev.Name] = true
			case trace.KindSend:
				sentBytes += uint64(ev.Bytes)
			}
		}
		if tr.Rank(r).Dropped() > 0 {
			t.Fatalf("rank %d trace ring overflowed in a small run", r)
		}
		for _, ph := range []string{"decompose", "treebuild", "branches", "walk"} {
			if !spans[ph] {
				t.Fatalf("rank %d trace missing %q span", r, ph)
			}
		}
		if got := w.RankTraffic(r).Total().Bytes; sentBytes != got {
			t.Fatalf("rank %d trace send bytes %d != traffic record %d", r, sentBytes, got)
		}
	}
}

// The roofline must stay a ceiling now that the kernels run sixteen
// float32 lanes wide (eight targets × two sources) on less than the
// counted arithmetic: on a small treebench-style run
// (4 ranks, real wall clock, host ceilings measured with the kernels'
// own instruction mix) the utilization is a fraction, and the report
// says what an interaction executes beside what it is charged.
func TestRooflineUtilizationIsAFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("host measurement in -short mode")
	}
	const n = 3000
	t0 := time.Now()
	w, engines := run4(t, n, 2, nil)
	wall := time.Since(t0).Seconds()
	inputs := make([]metrics.RankInput, len(engines))
	for r, e := range engines {
		inputs[r] = e.Record()
	}
	rep := metrics.BuildReport("test", wall, inputs, w, nil)
	rf := rep.Roofline
	rf.Calibrate(metrics.MeasurePeakFlops(), metrics.MeasurePeakBandwidth())
	if !(rf.Utilization > 0 && rf.Utilization <= 1) {
		t.Errorf("utilization %g of a %s-bound ceiling %g flops/s (achieved %g counted), want in (0, 1]",
			rf.Utilization, rf.Bound, rf.Ceiling, rf.AchievedFlops)
	}
	lo, hi := float64(diag.ExecutedFlopsPerInteraction), float64(diag.ExecutedFlopsPerInteraction+diag.ExecutedFlopsPerQuadrupole)
	if x := rf.ExecutedPerInteraction; x < lo || x > hi {
		t.Errorf("executed flops per interaction %g outside [%g, %g]", x, lo, hi)
	}
	if rf.ExecutedFlops == 0 || rf.ExecutedFlops >= rf.KernelFlops {
		t.Errorf("executed flops %d, counted %d: want 0 < executed < counted", rf.ExecutedFlops, rf.KernelFlops)
	}
	t.Logf("utilization %.3f (%s-bound), %.1f executed flops per interaction, peak %.1f Gflop/s",
		rf.Utilization, rf.Bound, rf.ExecutedPerInteraction, rf.PeakFlops/1e9)
}

// evalHook is an engine's Bodies with a call after every force
// evaluation, so a test sees each evaluation of a block step.
type evalHook struct {
	engineBodies
	after func()
}

func (h evalHook) Forces(minRung int) {
	h.engineBodies.Forces(minRung)
	h.after()
}

// evalCost is what one evaluation of one rank cost: the collectives of
// its splitter search, whether its predicted domain missed, and the body
// batches it sent.
type evalCost struct {
	split, batches int
	relocated      bool
}

// stepCost is what one step of one rank cost: its collectives and
// messages, the evaluations its stepper counted, and each of them.
type stepCost struct {
	colls, subs int
	msgs        uint64
	evals       []evalCost
}

// stepCosts runs steps steps of n Plummer bodies at np ranks after a
// first evaluation, uniformly or, at eta > 0, in block timesteps, and
// returns the cost of each, by rank and step.
func stepCosts(np, n, steps int, dt, eta float64) [][]stepCost {
	mac := grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true}
	global := ic.Plummer(n, 1.0, 41)
	costs := make([][]stepCost, np)
	msg.Run(np, func(c *msg.Comm) {
		e := New(c, scatter(global, c), Config{MAC: mac, Eps2: 1e-6})
		if eta > 0 {
			e.Stepper.Scheme, e.Stepper.Eta, e.Stepper.Eps = integrate.Block, eta, math.Sqrt(1e-6)
		}
		var cur *stepCost
		e.Stepper.B = evalHook{engineBodies{e}, func() {
			st := e.DecomposeStats()
			cur.evals = append(cur.evals, evalCost{split: st.Rounds, batches: st.Batches, relocated: st.Relocated})
		}}
		e.ComputeForces()
		mine := make([]stepCost, steps)
		for s := range mine {
			cur = &mine[s]
			before, sentBefore, subs := c.Collectives(), c.TrafficTotal().Msgs, e.Stepper.Stats.SubSteps
			e.Step(dt)
			cur.colls, cur.msgs = int(c.Collectives()-before), c.TrafficTotal().Msgs-sentBefore
			cur.subs = int(e.Stepper.Stats.SubSteps - subs)
		}
		costs[c.Rank()] = mine
	})
	return costs
}

// A step in steady state costs four collectives an evaluation: the
// splitters (one allgather, which also carries every rank's bounding
// box, so the key domain the step predicted is checked there), the
// bodies (the planned batches of an all-to-all), the branches with the
// walk bounds (allgather) and the push (all-to-all), after which the
// walk ends with no vote. On four ranks that is 24 messages besides the
// body batches, where a dense exchange would add 12; the windows of the
// splitter search leave out the pairs with nothing to send. A block
// step runs several evaluations, full and partial, and one collective
// more, the allreduce of the largest rung; a partial evaluation
// decomposes as a full one does, so it costs the same. The first step
// after a first evaluation is not steady -- the work goes from all-equal
// to counted interactions and the splitters jump past what the ranks
// publish -- so the count is taken on later ones. The domain's
// prediction holds on every one of them.
func TestUniformStepIsFourCollectives(t *testing.T) {
	const n, steps, dt = 3000, 5, 1e-3
	check := func(t *testing.T, np int, eta float64) {
		costs := stepCosts(np, n, steps, dt, eta)
		rung := 0
		if eta > 0 {
			rung = 1
		}
		perEval := uint64((np - 1) * (np + 4)) // two allgathers and the push
		partial := 0
		for s := 1; s < steps; s++ {
			evals := costs[0][s].subs
			msgs, planned := uint64(0), 0
			for r := 0; r < np; r++ {
				c := costs[r][s]
				if c.subs != evals || len(c.evals) != evals || c.colls != 4*evals+rung {
					t.Errorf("np=%d step %d rank %d: %d collectives over %d evaluations, want %d over %d",
						np, s, r, c.colls, len(c.evals), 4*evals+rung, evals)
				}
				for k, ev := range c.evals {
					if ev.split != 1 || ev.relocated {
						t.Errorf("np=%d step %d rank %d evaluation %d: splitter search %d collectives, relocated %v; want 1 and false",
							np, s, r, k, ev.split, ev.relocated)
					}
				}
				msgs += c.msgs
			}
			for k := 0; k < evals; k++ {
				batches := 0
				for r := 0; r < np; r++ {
					batches += costs[r][s].evals[k].batches
				}
				if batches >= np*(np-1) {
					t.Errorf("np=%d step %d evaluation %d: %d body batches, want fewer than the dense %d", np, s, k, batches, np*(np-1))
				}
				planned += batches
			}
			want := uint64(evals)*perEval + uint64(rung*2*(np-1)) + uint64(planned)
			if msgs != want {
				t.Errorf("np=%d step %d: %d messages over %d evaluations with %d body batches planned, want %d", np, s, msgs, evals, planned, want)
			}
			partial += evals - 1
			t.Logf("np=%d step %d: %d evaluations, %d messages, %d of them body batches", np, s, evals, msgs, planned)
		}
		if eta > 0 && partial == 0 {
			t.Errorf("np=%d: no partial evaluation after the first step", np)
		}
	}
	t.Run("uniform", func(t *testing.T) { check(t, 4, 0) })
	t.Run("block", func(t *testing.T) {
		for _, np := range []int{4, 8} {
			check(t, np, 0.02)
		}
	})
}
