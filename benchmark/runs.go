package main

import (
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
)

// timedSim is the end-to-end run of a sim workload: set-up repeated
// o.setups times (setup_s is the median; only the last world goes on),
// then timed steps with nothing recorded but what the step hands back,
// then the correctness checks on the final bodies.
func timedSim(spec simSpec, o opts) (*outcome, error) {
	out := newOutcome()
	var setups, rawSetups []float64
	ss := &session{spec: spec, seed: o.seed}
	for rep := 0; rep < o.setups; rep++ {
		if err := ss.start(); err != nil {
			return nil, err
		}
		setups = append(setups, ss.sim.setupS)
		rawSetups = append(rawSetups, ss.sim.rawSetS)
		if rep < o.setups-1 {
			if _, err := ss.sim.finish(); err != nil {
				return nil, err
			}
		}
		// A discarded world is collected now, and the timed region starts
		// from a collected heap, so that when the collector next runs --
		// and with it the resident-set high-water mark -- does not hang
		// on where the previous world's garbage left it.
		runtime.GC()
	}
	recs, err := ss.runSteps(o.seconds, o.fixedOps)
	out.sawSteps(recs)
	out.hung = ss.hung
	out.attempted = len(recs)
	if err != nil {
		out.attempted++
		out.failed++
		out.fail("%v", err)
	} else {
		checkBodies(out, ss.sim, spec)
	}
	col := func(f func(stepRec) float64) []float64 { return column(recs, f) }
	wall := col(func(r stepRec) float64 { return r.wall })
	out.set("setup_s", median(setups), len(setups))
	out.set("op_wall_ms", 1e3*mean(col(func(r stepRec) float64 { return r.normWall })), len(recs))
	out.set("op_cpu_ms", 1e3*mean(col(func(r stepRec) float64 { return r.normCPU })), len(recs))
	out.set("peak_rss_mb", peakRSSMB(), 1)
	out.raw = map[string]float64{
		"setup_s":    median(rawSetups),
		"op_wall_ms": 1e3 * mean(wall),
		"op_cpu_ms":  1e3 * mean(col(func(r stepRec) float64 { return r.cpu })),
	}
	out.note("step wall as measured: p50 %.1f ms, p90 %.1f ms (%d of the %d samples beyond it that a tail percentile needs)",
		1e3*median(wall), 1e3*percentile(wall, 0.90), samplesBeyond(len(wall), 0.90), minBeyond)
	return out, nil
}

// checkBodies stops the world and holds its final state to the
// workload's contract; it returns the bodies ordered by ID.
func checkBodies(out *outcome, s *sim, spec simSpec) *core.System {
	parts, err := s.finish()
	if err != nil {
		out.fail("%v", err)
		return nil
	}
	all, err := gather(parts, spec.n)
	if err != nil {
		out.fail("%v", err)
		return nil
	}
	fe := forceErrP99(all)
	out.set("parallel.force_err_p99", fe, min(forceSamples, spec.n))
	if !(fe <= forceErrCeiling) {
		out.fail("force_err_p99 %.3g exceeds the ceiling %.3g", fe, forceErrCeiling)
	}
	return all
}

// tracedSim is the per-layer run of a sim workload. It runs the
// workload twice from the same seed, half the time each: once exactly
// as timedSim does, once with the span recorder on and the engine's
// exported phase clock, counters and the allocator read at every step
// boundary. The two must do identical work step for step, and their
// step times give the tracing overhead. The layer replay then drives
// each layer alone over the traced run's final bodies. Per-layer times
// are as measured; only the ratios that compare two intervals taken
// at different moments are formed from rescaled times.
func tracedSim(spec simSpec, o opts) (*outcome, error) {
	out := newOutcome()
	plain := &session{spec: spec, seed: o.seed}
	if err := plain.start(); err != nil {
		return nil, err
	}
	plainRecs, err := plain.runSteps(o.seconds/2, o.fixedOps)
	if err != nil {
		return nil, err
	}
	if _, err := plain.sim.finish(); err != nil {
		return nil, err
	}

	rec := newRecorder()
	ss := &session{spec: spec, seed: o.seed, rec: rec, hung: plain.hung}
	if err := ss.start(); err != nil {
		return nil, err
	}
	recs, err := ss.runSteps(o.seconds/2, o.fixedOps)
	out.sawSteps(recs)
	s := ss.sim
	out.hung = ss.hung
	out.attempted = len(recs)
	if err != nil {
		out.attempted++
		out.failed++
		out.fail("%v", err)
		return out, nil
	}
	// A world that took over after a hang started again from the initial
	// conditions, so its steps are not the other run's steps.
	if ss.hung > 0 {
		out.note("a world hung: the untraced and traced runs' counts are not compared")
	} else if err := sameCounts(plainRecs, recs); err != nil {
		out.fail("untraced and traced runs of seed %d differ: %v", o.seed, err)
	}
	all := checkBodies(out, s, spec)
	if all == nil {
		return out, nil
	}
	e0, e1 := s.energy0, s.energy()
	before := takeProbe()
	rp, err := replay(rec, all, spec, o.seed)
	if err != nil {
		out.fail("%v", err)
		return out, nil
	}
	out.note("standalone domain.Decompose at np=%d: %.2f ms", spec.np, ms(rp.decompose))
	if last := recs[len(recs)-1]; spec.np == 1 && rp.inter != last.inter {
		out.fail("replay counted %d interactions, the engine %d for the same bodies", rp.inter, last.inter)
	}
	if err := rec.writeChrome(filepath.Join(o.traceDir, spec.name+".trace.json")); err != nil {
		return nil, err
	}
	// The replay is one step's work at np=1 on one busy thread, layer by
	// layer. Its cost at reference speed is what the ratios against the
	// engine's steps, taken at other moments, are formed from.
	self := selfTimes(rec.spans)
	closure := (self["core.sort"] + self["tree.build"] + self["tree.walk"] + self["grav.eval"]).Seconds()
	serial, _, _ := atRefSpeed(closure, closure, 1, before.mid(takeProbe()))

	n := len(recs)
	col := func(f func(stepRec) float64) []float64 { return column(recs, f) }
	med := func(f func(stepRec) float64) float64 { return median(col(f)) }
	phase := func(name string) float64 { return 1e3 * med(func(r stepRec) float64 { return r.phaseMax[name] }) }
	wall := col(func(r stepRec) float64 { return r.wall })
	wallMS := 1e3 * median(wall)
	cpuMS := 1e3 * med(func(r stepRec) float64 { return r.cpu })
	normWall := med(func(r stepRec) float64 { return r.normWall })
	plainWall := median(column(plainRecs, func(r stepRec) float64 { return r.normWall }))
	inter := med(func(r stepRec) float64 { return float64(r.inter) })

	out.set("grav.ns_per_pp", float64(rp.ppTime)/float64(rp.pp), int(rp.pp))
	out.set("grav.ns_per_pc", float64(rp.pcTime)/float64(rp.pc), int(rp.pc))
	out.set("grav.eval_ms", ms(rp.eval), rp.groups)
	out.set("grav.pp_per_step", med(func(r stepRec) float64 { return float64(r.pp) }), n)
	out.set("grav.pc_per_step", med(func(r stepRec) float64 { return float64(r.pc) }), n)
	out.set("grav.kernel_gflops", float64(rp.inter)*38/rp.eval.Seconds()/1e9, rp.groups)
	out.set("tree.walk_ms", ms(rp.walk), rp.groups)
	out.set("tree.walk_ns_per_inter", float64(rp.walk)/float64(rp.inter), rp.groups)
	out.set("tree.build_ms", ms(rp.build), 1)
	out.set("tree.cells", med(func(r stepRec) float64 { return float64(r.cells) }), n)
	out.set("tree.groups", float64(rp.groups), 1)
	out.set("tree.list_len_mean", rp.listLenMean, rp.groups)
	out.set("core.sort_ms", ms(rp.sort), 1)
	out.set("core.sort_ns_per_body", float64(rp.sort)/float64(spec.n), 1)
	out.set("domain.decompose_ms", phase("decompose"), n)
	out.set("domain.decompose_share", phase("decompose")/wallMS, n)
	out.set("hotengine.walk_ms", phase("walk"), n)
	out.set("hotengine.treebuild_ms", phase("treebuild"), n)
	out.set("hotengine.branches_ms", phase("branches"), n)
	out.set("hotengine.rounds_per_eval", med(func(r stepRec) float64 { return float64(r.rounds) }), n)
	out.set("hotengine.remote_cells_per_eval", med(func(r stepRec) float64 { return float64(r.remote) }), n)
	out.set("hotengine.walk_over_serial", med(func(r stepRec) float64 { return r.walkSum })/(rp.walk+rp.eval).Seconds(), n)
	out.set("msg.msgs_per_step", med(func(r stepRec) float64 { return float64(r.msgs) }), n)
	out.set("msg.bytes_per_step", med(func(r stepRec) float64 { return float64(r.bytes) }), n)
	out.set("msg.max_rank_bytes_per_step", med(func(r stepRec) float64 { return float64(r.maxRankB) }), n)
	out.set("msg.allreduce_us", float64(rp.allreduce)/1e3, 1)
	out.set("msg.alltoallv_us", float64(rp.alltoallv)/1e3, 1)
	out.set("msg.hung_worlds", float64(ss.hung), 1)
	out.set("parallel.step_wall_p10_ms", 1e3*percentile(wall, 0.10), n)
	out.set("parallel.step_wall_p50_ms", wallMS, n)
	out.set("parallel.step_wall_p90_ms", 1e3*percentile(wall, 0.90), n)
	out.set("parallel.cpu_over_wall", cpuMS/wallMS, n)
	out.set("parallel.rank_spread_ms", 1e3*med(func(r stepRec) float64 { return r.spread }), n)
	out.set("parallel.inter_per_step", inter, n)
	out.set("parallel.gflops_equiv", inter*38/(wallMS/1e3)/1e9, n)
	out.set("parallel.speedup_vs_np1", serial/normWall, n)
	out.set("parallel.cpu_overhead_vs_np1", med(func(r stepRec) float64 { return r.normCPU })/serial, n)
	out.set("parallel.energy_drift", math.Abs((e1-e0)/e0), n)
	out.set("runtime.alloc_kb_per_step", med(func(r stepRec) float64 { return r.allocKB }), n)
	out.set("runtime.gc_per_step", mean(col(func(r stepRec) float64 { return float64(r.gcs) })), n)
	out.set("runtime.heap_peak_mb", percentile(col(func(r stepRec) float64 { return r.heapMB }), 1), n)
	out.set("bench.closure_frac", serial/plainWall, len(plainRecs))
	out.set("bench.trace_overhead_frac", normWall/plainWall-1, n)
	return out, nil
}

// timedServe is the end-to-end run of serve-mix.
func timedServe(o opts) (*outcome, error) {
	out := newOutcome()
	var setups, rawSetups []float64
	var s *server
	for rep := 0; rep < o.setups; rep++ {
		var err error
		if s, err = startServe(o.seed, o.quick, nil); err != nil {
			return nil, err
		}
		setups = append(setups, s.setupS)
		rawSetups = append(rawSetups, s.rawSetS)
		if rep < o.setups-1 {
			s.stop()
		}
		runtime.GC() // as in timedSim
	}
	defer s.stop()
	w := driveWindow(out, s, o, nil)
	n := float64(len(w.latency))
	out.set("setup_s", median(setups), len(setups))
	out.set("op_wall_ms", 1e3*w.wall/n, len(w.latency))
	out.set("op_cpu_ms", 1e3*w.cpu/n, len(w.latency))
	out.set("peak_rss_mb", peakRSSMB(), 1)
	out.raw = map[string]float64{
		"setup_s":    median(rawSetups),
		"op_wall_ms": 1e3 * w.rawWall / n,
		"op_cpu_ms":  1e3 * w.rawCPU / n,
	}
	out.note("job latency as measured: p50 %.1f ms, p90 %.1f ms (%d of the %d samples beyond it that a tail percentile needs)",
		median(w.latency), percentile(w.latency, 0.90), samplesBeyond(len(w.latency), 0.90), minBeyond)
	return out, nil
}

// window is one timed closed-loop window of serve-mix.
type window struct {
	jobs            []jobRec
	latency         []float64 // ms as measured, completed jobs only
	wall, cpu       float64   // seconds at the witness's reference speed, summed over the legs
	rawWall, rawCPU float64   // seconds as measured
}

// serveLegs is how many legs a window is driven in. The witness cannot
// run beside a loaded server without taking its CPU, so the loop
// drains between legs and the witness runs in the gaps.
const serveLegs = 3

// driveWindow runs the closed loop for o.seconds in serveLegs legs
// (o.fixedOps*4 jobs in one leg at quick scale), each leg first POST to
// last job noticed, and holds the window to the service's contract:
// every job completed, repeated (class, seed) hashes equal, and the
// service's own completed counter in step with what the clients saw.
func driveWindow(out *outcome, s *server, o opts, rec *recorder) window {
	var w window
	doneBefore, err := s.completedCount()
	if err != nil {
		out.fail("%v", err)
	}
	legs := serveLegs
	if o.fixedOps > 0 {
		legs = 1
	}
	before := takeProbe()
	for leg := 0; leg < legs; leg++ {
		cpu0, t0 := cpuSeconds(), time.Now()
		jobs := s.drive(len(w.jobs), o.seconds/float64(legs), o.fixedOps*4, rec)
		end := t0
		for _, j := range jobs {
			out.attempted++
			if j.err != nil {
				out.failed++
				out.fail("%v", j.err)
				continue
			}
			if j.noticed.After(end) {
				end = j.noticed
			}
			w.latency = append(w.latency, ms(j.latency()))
		}
		wall, cpu := end.Sub(t0).Seconds(), cpuSeconds()-cpu0
		after := takeProbe()
		// The closed loop keeps every processor busy.
		normWall, normCPU, reading := atRefSpeed(wall, cpu, runtime.GOMAXPROCS(0), before.mid(after))
		before = after
		out.witnessed = append(out.witnessed, reading)
		w.wall, w.cpu = w.wall+normWall, w.cpu+normCPU
		w.rawWall, w.rawCPU = w.rawWall+wall, w.rawCPU+cpu
		w.jobs = append(w.jobs, jobs...)
	}
	doneAfter, err := s.completedCount()
	if err != nil {
		out.fail("%v", err)
	} else if doneAfter-doneBefore != len(w.latency) {
		out.fail("service counted %d completed jobs in the window, the clients %d", doneAfter-doneBefore, len(w.latency))
	}
	if len(w.latency) == 0 {
		out.fail("no job completed")
		w.latency, w.wall, w.rawWall = []float64{0}, 1, 1
	}
	return w
}

// tracedServe is the per-layer run of serve-mix: half the time
// untraced, half with client spans, a report fetch per job and heap
// samples at every completion.
func tracedServe(o opts) (*outcome, error) {
	out := newOutcome()
	half := o
	half.seconds = o.seconds / 2

	plain, err := startServe(o.seed, o.quick, nil)
	if err != nil {
		return nil, err
	}
	plainW := driveWindow(out, plain, half, nil)
	plain.stop()

	rec := newRecorder()
	s, err := startServe(o.seed, o.quick, rec)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	out.attempted, out.failed, out.witnessed = 0, 0, nil // the traced window is the one reported
	var mem memDelta
	mem.start()
	w := driveWindow(out, s, half, rec)
	allocKB, gcs := mem.stop()
	if err := rec.writeChrome(filepath.Join(o.traceDir, "serve-mix.trace.json")); err != nil {
		return nil, err
	}

	var submit, queue, run, world, setup, notice, get, report []float64
	byClass := make([][]float64, len(s.classes))
	for _, j := range w.jobs {
		if j.err != nil {
			continue
		}
		st := j.status
		runMS := ms(st.Finished.Sub(*st.Started))
		submit = append(submit, ms(j.posted.Sub(j.post)))
		queue = append(queue, ms(st.Started.Sub(st.Submitted)))
		run = append(run, runMS)
		world = append(world, st.Result.WallMs)
		setup = append(setup, runMS-st.Result.WallMs)
		notice = append(notice, ms(j.noticed.Sub(*st.Finished)))
		get = append(get, float64(j.pollTime)/float64(j.polls)/1e3)
		report = append(report, ms(j.reportTime))
		byClass[j.class] = append(byClass[j.class], ms(j.latency()))
	}
	n := len(w.latency)
	out.set("simserve.submit_ms", median(submit), n)
	out.set("simserve.queue_ms", median(queue), n)
	out.set("simserve.run_ms", median(run), n)
	out.set("simserve.world_ms", median(world), n)
	out.set("simserve.setup_ms", median(setup), n)
	out.set("simserve.notice_ms", median(notice), n)
	out.set("simserve.status_get_us", median(get), n)
	out.set("simserve.report_get_ms", median(report), n)
	for c, lat := range byClass {
		out.set("simserve.latency_p50_ms."+s.classes[c].name, median(lat), len(lat))
	}
	out.set("simserve.latency_p50_ms", median(w.latency), n)
	out.set("simserve.latency_p90_ms", percentile(w.latency, 0.90), n)
	out.set("simserve.jobs_per_s", float64(n)/w.rawWall, n)
	out.set("runtime.alloc_kb_per_step", allocKB/float64(n), n)
	out.set("runtime.gc_per_step", gcs/float64(n), n)
	out.set("runtime.heap_peak_mb", s.heapMB, n)
	out.set("bench.trace_overhead_frac", (w.wall/float64(n))/(plainW.wall/float64(len(plainW.latency)))-1, n)
	if !trusted(n, 0.90) {
		out.note("simserve.latency_p90_ms has %d of the %d samples beyond it that a tail percentile needs", samplesBeyond(n, 0.90), minBeyond)
	}
	return out, nil
}

func column(recs []stepRec, f func(stepRec) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = f(r)
	}
	return out
}
