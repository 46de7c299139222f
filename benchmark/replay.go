package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/domain"
	"repro/internal/grav"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
)

// replayOut is what the layer replay measured: each layer's public
// entry point driven alone, on one goroutine, over the final bodies of
// the traced run -- the np=1 cost of one step, layer by layer.
type replayOut struct {
	sort, build, walk, eval time.Duration
	ppTime, pcTime          time.Duration
	inter, pp, pc           uint64
	groups                  int
	listLenMean             float64
	decompose               time.Duration
	allreduce, alltoallv    time.Duration // per operation
}

// replay drives core, tree and grav over all (bodies ordered by ID),
// then domain and msg in fresh worlds at the workload's np and
// injector. lane is the trace lane the spans land on.
func replay(rec *recorder, all *core.System, spec simSpec, seed int64) (replayOut, error) {
	var out replayOut
	lane := spec.np

	// Scatter first, in ID order, the way set-up does: the sort below
	// would hand domain.Decompose an already decomposed input.
	parts := make([]*core.System, spec.np)
	for r := range parts {
		parts[r] = new(core.System)
		parts[r].EnableDynamics()
		for i := r * spec.n / spec.np; i < (r+1)*spec.n/spec.np; i++ {
			parts[r].AppendFrom(all, i)
		}
	}

	d := keys.NewDomain(all.Pos)
	out.sort = rec.timed("core.sort", 0, lane, 0, func() {
		all.AssignKeys(d)
		all.SortByKey()
	})
	var t *tree.Tree
	out.build = rec.timed("tree.build", 0, lane, 0, func() { t = tree.Build(all, d, mac, bucket) })
	out.groups = len(t.Groups)

	// Pass 1 warms the walker's buffers and times the three kernels one
	// by one on each group's harvested list; pass 2 is the measured
	// Walk + Evaluate, the pair the program itself runs per group.
	var w tree.Walker
	var tg grav.Targets
	var warm diag.Counters
	var listLen int
	for _, gk := range t.Groups {
		g := t.Cell(gk)
		lo, hi := g.First, g.First+g.N
		if m := w.Walk(t, gk, all.Pos[lo:hi], &warm); m != nil {
			return out, fmt.Errorf("replay: serial walk reported %d missing cells", len(m))
		}
		listLen += len(w.List.SX) + len(w.List.CM)
		tg.Load(all.Pos[lo:hi], all.Mass[lo:hi])
		t0 := time.Now()
		out.pc += grav.EvalM2P(&tg, &w.List, mac.Quad, eps2)
		t1 := time.Now()
		out.pp += grav.EvalPP(&tg, &w.List, eps2)
		if w.List.Self {
			out.pp += grav.EvalSelf(&tg, eps2)
		}
		out.pcTime += t1.Sub(t0)
		out.ppTime += time.Since(t1)
	}
	out.listLenMean = float64(listLen) / float64(max(out.groups, 1))

	var ctr diag.Counters
	for gi, gk := range t.Groups {
		g := t.Cell(gk)
		lo, hi := g.First, g.First+g.N
		t0 := time.Now()
		w.Walk(t, gk, all.Pos[lo:hi], &ctr)
		t1 := time.Now()
		w.Evaluate(all.Pos[lo:hi], all.Mass[lo:hi], all.Acc[lo:hi], all.Pot[lo:hi], eps2, mac.Quad, &ctr)
		t2 := time.Now()
		rec.add("tree.walk", 0, lane, gi+1, t0, t1)
		rec.add("grav.eval", 0, lane, gi+1, t1, t2)
		out.walk += t1.Sub(t0)
		out.eval += t2.Sub(t1)
	}
	out.inter = ctr.Interactions()
	if ctr.PP != out.pp || ctr.PC != out.pc {
		return out, fmt.Errorf("replay: Evaluate counted pp %d pc %d, the kernels pp %d pc %d", ctr.PP, ctr.PC, out.pp, out.pc)
	}

	var err error
	if out.decompose, err = probeDecompose(rec, parts, d, spec, seed); err != nil {
		return out, err
	}
	out.allreduce, out.alltoallv, err = probeCollectives(rec, spec, seed)
	return out, err
}

// runProbe runs fn on every rank of a fresh world at the workload's np
// and injector. Like a step, a probe under injected latency can hang
// on the program's lost wake-up, which fails the run.
func runProbe(spec simSpec, seed int64, fn func(*msg.Comm)) error {
	w := spec.newWorld(seed)
	done := make(chan *msg.WorldError, 1)
	go func() { done <- w.RunErr(fn) }()
	select {
	case werr := <-done:
		if werr != nil {
			return werr
		}
		return nil
	case <-time.After(spec.hangLimit):
		return errHung
	}
}

// probeDecompose times one standalone domain.Decompose at the
// workload's np and injector: the slowest rank, barrier to finish.
func probeDecompose(rec *recorder, parts []*core.System, d keys.Domain, spec simSpec, seed int64) (time.Duration, error) {
	took := make([]time.Duration, spec.np)
	err := runProbe(spec, seed, func(c *msg.Comm) {
		c.Barrier()
		took[c.Rank()] = rec.timed("domain.decompose", 0, c.Rank(), 0, func() {
			domain.Decompose(c, parts[c.Rank()], d)
		})
	})
	if err != nil {
		return 0, fmt.Errorf("decompose probe: %w", err)
	}
	var worst time.Duration
	for _, t := range took {
		worst = max(worst, t)
	}
	return worst, nil
}

// probeCollectives times the two collectives the engine's rounds are
// made of, in a fresh world at the workload's np and injector. Under
// injected latency each takes tens of milliseconds, so fewer are run.
func probeCollectives(rec *recorder, spec simSpec, seed int64) (allreduce, alltoallv time.Duration, err error) {
	var took [2]time.Duration // rank 0's; not read if the probe hangs
	iters := 200
	if spec.latency > 0 {
		iters = 40
	}
	sum := func(a, b float64) float64 { return a + b }
	err = runProbe(spec, seed, func(c *msg.Comm) {
		send := make([][]int32, c.Size())
		for r := range send {
			send[r] = []int32{int32(c.Rank())}
		}
		c.Barrier()
		a := rec.timed("msg.probe", 0, c.Rank(), 1, func() {
			for i := 0; i < iters; i++ {
				msg.Allreduce(c, 1.0, sum, 8)
			}
		})
		b := rec.timed("msg.probe", 0, c.Rank(), 2, func() {
			for i := 0; i < iters; i++ {
				msg.Alltoallv(c, send, 4)
			}
		})
		if c.Rank() == 0 {
			took = [2]time.Duration{a, b}
		}
	})
	if err != nil {
		return 0, 0, fmt.Errorf("collective probe: %w", err)
	}
	return took[0] / time.Duration(iters), took[1] / time.Duration(iters), nil
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
