package hot

// One benchmark per table and figure of the paper (see DESIGN.md's
// experiment index), plus ablation benches for the design choices the
// paper calls out. The per-experiment benches report paper-vs-ours
// ratios as custom metrics ("paper_ratio" = ours/paper, ~1.0 when the
// reproduction matches); wall-clock time of the bench itself is the
// host cost of regenerating the result, not the 1997 wall time.

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/domain"
	"repro/internal/experiments"
	"repro/internal/grav"
	"repro/internal/htab"
	"repro/internal/ic"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/npb"
	"repro/internal/perfmodel"
	"repro/internal/rsqrt"
	"repro/internal/tree"
	"repro/internal/vec"
)

func reportRows(b *testing.B, rows []experiments.Row) {
	for _, r := range rows {
		b.ReportMetric(r.Ratio(), "paper_ratio/"+r.ID)
	}
}

// --- headline results ----------------------------------------------------

func BenchmarkE1_NSquaredASCIRed(b *testing.B) {
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		rows = experiments.E1(2000, 4, 1).Rows
	}
	reportRows(b, rows)
}

func BenchmarkE2_TreecodePeak(b *testing.B) {
	var res experiments.E2Result
	for i := 0; i < b.N; i++ {
		res = experiments.E2(16, 4, 2)
	}
	reportRows(b, res.Rows[:1])
	b.ReportMetric(res.PerBodyStep, "interactions/body/step")
}

func BenchmarkE2_TreecodeSustained(b *testing.B) {
	var res experiments.E2Result
	for i := 0; i < b.N; i++ {
		res = experiments.E2(16, 4, 2)
	}
	reportRows(b, res.Rows[1:2])
}

func BenchmarkE2_EfficiencyRatio(b *testing.B) {
	var res experiments.E2Result
	for i := 0; i < b.N; i++ {
		res = experiments.E2(16, 4, 2)
	}
	reportRows(b, res.Rows[2:])
}

func BenchmarkE3_Loki(b *testing.B) {
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		rows = experiments.E3(16, 2)
	}
	reportRows(b, rows)
}

func BenchmarkE4_VortexHyglac(b *testing.B) {
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		rows = experiments.E4(24, 3, 4)
	}
	reportRows(b, rows)
}

func BenchmarkE5_SC96Combined(b *testing.B) {
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		rows = experiments.E5(16, 2)
	}
	reportRows(b, rows)
}

func BenchmarkE6_UpdateRate(b *testing.B) {
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		rows = experiments.E6(16, 4, 2)
	}
	reportRows(b, rows)
}

// --- tables ----------------------------------------------------------------

func BenchmarkT1_LokiPrice(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		total = perfmodel.Total(perfmodel.Table1Loki)
	}
	b.ReportMetric(total/perfmodel.Table1Total, "paper_ratio/T1")
}

func BenchmarkT2_SpotPrices(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		total = perfmodel.Aug97SystemUSD()
	}
	b.ReportMetric(total/28000, "paper_ratio/T2")
}

func BenchmarkT3_NPBClassB(b *testing.B) {
	var rows []experiments.NPBRow
	for i := 0; i < b.N; i++ {
		rows = experiments.NPBTable3(npb.MiniA)
	}
	// Paper Table 3 Red/Loki ratios (PGI columns): BT 445.5/354.6,
	// SP 334.8/255.5, LU 490.2/428.6, MG 363.7/296.8, EP 7.1/8.9,
	// IS 38.0/14.8.
	paper := map[string]float64{
		"BT": 445.5 / 354.6, "SP": 334.8 / 255.5, "LU": 490.2 / 428.6,
		"MG": 363.7 / 296.8, "EP": 7.1 / 8.9, "IS": 38.0 / 14.8,
	}
	for _, r := range rows {
		if p, ok := paper[r.Kernel]; ok && p > 0 {
			b.ReportMetric(r.RedOverLoki/p, "redloki_ratio/"+r.Kernel)
		}
	}
}

func BenchmarkT4_NPBScaling(b *testing.B) {
	var tab map[int][]experiments.NPBRow
	for i := 0; i < b.N; i++ {
		tab = experiments.NPBTable4(npb.MiniA, []int{1, 4, 16})
	}
	// Paper Table 4: LU scales 31 -> 453 Mflops from 1 to 16 procs
	// (speedup 14.6); report our modeled speedups per kernel.
	for k, kernel := range npb.Kernels {
		s1 := tab[1][k].LokiMops
		s16 := tab[16][k].LokiMops
		if s1 > 0 {
			b.ReportMetric(s16/s1, "speedup16/"+kernel)
		}
	}
}

// --- figures ----------------------------------------------------------------

func BenchmarkF1_DensityImage(b *testing.B) {
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure(dir+"/f1.pgm", 16, 2, 1, 128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF3_NPBScalingSeries(b *testing.B) {
	// Figure 3 is Table 4's data plotted; regenerate the series.
	for i := 0; i < b.N; i++ {
		experiments.NPBTable4(npb.MiniA, []int{1, 2, 4})
	}
}

// --- ablations ---------------------------------------------------------------

// buildCluster prepares a key-sorted clustered system for the tree
// ablations.
func buildCluster(n int) (*core.System, keys.Domain) {
	sys := ic.Plummer(n, 1.0, 11)
	d := keys.NewDomain(sys.Pos)
	sys.AssignKeys(d)
	sys.SortByKey()
	return sys, d
}

func benchGravity(b *testing.B, mac grav.MACParams, bucket int) {
	sys, d := buildCluster(20000)
	b.ResetTimer()
	var inter uint64
	for i := 0; i < b.N; i++ {
		tr := tree.Build(sys, d, mac, bucket)
		ctr := tr.Gravity(1e-6)
		inter = ctr.Interactions()
	}
	b.ReportMetric(float64(inter), "interactions/op")
}

func BenchmarkAblation_MACBarnesHut(b *testing.B) {
	benchGravity(b, grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.7, Quad: true}, 16)
}

func BenchmarkAblation_MACSalmonWarren(b *testing.B) {
	benchGravity(b, grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true}, 16)
}

func BenchmarkAblation_OrderMonopole(b *testing.B) {
	benchGravity(b, grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.7, Quad: false}, 16)
}

func BenchmarkAblation_OrderQuadrupole(b *testing.B) {
	benchGravity(b, grav.MACParams{Kind: grav.MACBarnesHut, Theta: 0.7, Quad: true}, 16)
}

func BenchmarkAblation_GroupSize4(b *testing.B)  { benchGravity(b, grav.DefaultMAC(), 4) }
func BenchmarkAblation_GroupSize16(b *testing.B) { benchGravity(b, grav.DefaultMAC(), 16) }
func BenchmarkAblation_GroupSize64(b *testing.B) { benchGravity(b, grav.DefaultMAC(), 64) }

// --- sink cells vs leaves as groups ------------------------------------------
//
// The same tree (Plummer sphere, N = 10000, default MAC, bucket 16),
// hence the same sources; what differs is who shares an interaction
// list. SinkCells walks and evaluates the tree's own groups, cells of
// up to 64 bodies; SinkLeaves the leaves, each for itself, as every
// walk ran before sink cells: 3.7 times the lists (2110 against 567)
// for 23% fewer interactions, in nearly half as much time again (79
// against 54 ms in BENCH_baseline.json). The GroupSize rows above vary
// the bucket, which since sink cells sizes the sources only.

// leafGroups returns tr's leaves in Morton order (the tree package
// keeps its own copy of this, for its tests, in export_test.go).
func leafGroups(tr *tree.Tree) []keys.Key {
	var leaves []keys.Key
	tr.Cells.Range(func(k keys.Key, c *tree.Cell) bool {
		if c.Leaf {
			leaves = append(leaves, k)
		}
		return true
	})
	sort.Slice(leaves, func(i, j int) bool { return tr.Cell(leaves[i]).First < tr.Cell(leaves[j]).First })
	return leaves
}

// idleThreads leaves the scheduler idle OS threads to spare before an
// allocation-free loop is timed. When the scheduler wants one more
// thread than it has idle, it starts one, and allocm's m with its g0
// and gsignal goroutines are 6 objects, 5 504 B, which the process-wide
// count charges to whatever loop is timed: 1 alloc/op at
// -benchtime=5x, in a few percent of runs, more on a loaded machine.
// Each goroutine here pins a thread of its own until all are running,
// then returns it to the idle list, which the runtime never shrinks.
func idleThreads() {
	n := 4 * runtime.GOMAXPROCS(0)
	var running, done sync.WaitGroup
	running.Add(n)
	done.Add(n)
	release := make(chan struct{})
	for range n {
		go func() {
			defer done.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			running.Done()
			<-release
		}()
	}
	running.Wait()
	close(release)
	done.Wait()
}

func benchSink(b *testing.B, leaves bool) {
	sys, d := buildCluster(10000)
	tr := tree.Build(sys, d, grav.DefaultMAC(), 16)
	groups := tr.Groups
	if leaves {
		groups = leafGroups(tr)
	}
	var w tree.Walker
	var ctr diag.Counters
	round := func() {
		for _, gk := range groups {
			g := tr.Cell(gk)
			lo, hi := g.First, g.First+g.N
			w.Walk(tr, gk, sys.Pos[lo:hi], &ctr)
			w.Evaluate(sys.Pos[lo:hi], sys.Mass[lo:hi], sys.Acc[lo:hi], sys.Pot[lo:hi], 1e-6, tr.MAC.Quad, &ctr)
		}
	}
	round() // warm-up: stack, batch, list and target block reach their high-water marks
	idleThreads()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr = diag.Counters{}
		round()
	}
	b.ReportMetric(float64(ctr.Interactions()), "interactions/op")
	b.ReportMetric(float64(len(groups)), "groups/op")
}

func BenchmarkAblation_SinkLeaves(b *testing.B) { benchSink(b, true) }
func BenchmarkAblation_SinkCells(b *testing.B)  { benchSink(b, false) }

// --- tree-construction pipeline ------------------------------------------
//
// The radix sort of 100k bodies, the tree build over them, and a
// decomposition trajectory. Note the worker-fanned sort can only pull
// ahead of a serial one when GOMAXPROCS > 1; on a single-CPU host it
// measures the (small) coordination overhead instead.

// sortBenchSystems returns a pristine unsorted keyed system and a
// same-shape scratch the benchmark restores into each iteration.
func sortBenchSystems(n int) (*core.System, *core.System) {
	base := ic.Plummer(n, 1.0, 11)
	d := keys.NewDomain(base.Pos)
	base.AssignKeys(d)
	work := core.New(0)
	work.EnableDynamics()
	for i := 0; i < n; i++ {
		work.AppendFrom(base, i)
	}
	return base, work
}

func restoreSystem(dst, src *core.System) {
	copy(dst.Pos, src.Pos)
	copy(dst.Mass, src.Mass)
	copy(dst.Key, src.Key)
	copy(dst.Work, src.Work)
	copy(dst.ID, src.ID)
	copy(dst.Vel, src.Vel)
	copy(dst.Acc, src.Acc)
	copy(dst.Pot, src.Pot)
}

func BenchmarkAblation_SortRadix(b *testing.B) {
	base, work := sortBenchSystems(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		restoreSystem(work, base)
		b.StartTimer()
		work.SortByKey()
	}
}

func BenchmarkAblation_BuildSerial(b *testing.B) {
	sys, d := buildCluster(100000)
	var builder tree.Builder
	mac := grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-3, Quad: true}
	b.ResetTimer()
	var cells int
	for i := 0; i < b.N; i++ {
		cells = builder.BuildRange(sys, d, mac, 16, 0, tree.EndOffset).NCells()
	}
	b.ReportMetric(float64(cells), "cells/op")
}

// A 4-rank decomposition trajectory: one cold solve, then steady-state
// steps (the order is repaired, not re-sorted; the splitter search is
// four collectives every time).
func BenchmarkAblation_DecomposeIncremental(b *testing.B) {
	const n, steps = 20000, 4
	global := ic.Plummer(n, 1.0, 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Run(4, func(c *msg.Comm) {
			local := core.New(0)
			local.EnableDynamics()
			lo, hi := c.Rank()*n/4, (c.Rank()+1)*n/4
			for j := lo; j < hi; j++ {
				local.AppendFrom(global, j)
			}
			dec := &domain.Decomposer{}
			for s := 0; s < steps; s++ {
				d := domain.GlobalDomain(c, local)
				local = dec.Decompose(c, local, d).Sys
			}
		})
	}
}

// benchStep times one global step of the serial engine on the
// clustered stepping IC: a Plummer sphere (the dense core spans
// several rungs) inside a cold-collapse shell (at rest, coarsest
// rungs until infall). Uniform runs one full evaluation per step;
// block runs 2^maxrung sub-step evaluations over shrinking active
// sets. "evalsave" is sink evaluations saved versus sub-stepping
// everything at the finest rung -- the paper-facing win of the
// hierarchy -- and "activefrac" its inverse.
func benchStep(b *testing.B, eta float64) {
	bodies := append(PlummerSphere(12000, 1, 11), ColdSphere(8000, 2, 13)...)
	sim, err := NewSerial(bodies, Defaults())
	if err != nil {
		b.Fatal(err)
	}
	if eta > 0 {
		sim.EnableBlockSteps(eta)
	}
	b.ResetTimer()
	var inter uint64
	for i := 0; i < b.N; i++ {
		inter += sim.Step(1e-3).Interactions
	}
	st := sim.StepperStats()
	b.ReportMetric(float64(inter)/float64(b.N), "interactions/op")
	if st.ActiveSinks > 0 {
		b.ReportMetric(float64(st.ActiveSinks)/float64(st.TotalSinks), "activefrac")
		b.ReportMetric(float64(st.TotalSinks)/float64(st.ActiveSinks), "evalsave")
	}
}

func BenchmarkAblation_StepUniform(b *testing.B) { benchStep(b, 0) }
func BenchmarkAblation_StepBlock(b *testing.B)   { benchStep(b, 0.02) }

// GroupSphere runs once per group per evaluation (it gates every MAC
// test), so its scalar rewrite is tracked alongside the kernels.
func BenchmarkAblation_GroupSphere(b *testing.B) {
	sys, _ := buildCluster(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo+16 <= sys.Len(); lo += 16 {
			tree.GroupSphere(sys.Pos[lo : lo+16])
		}
	}
}

// --- descent: by index against the paper's hash probe per cell --------------
//
// The same tree (Plummer sphere, N = 20000, default MAC, bucket 16),
// the same groups, the same squared acceptance test, the same batch of
// accepted cells gathered into the same list: what differs is how a
// child is found. Walker.Walk steps to entry Kids + j of the table; the
// hash descent is the paper's, a stack of keys and a probe for each.
// Lists are equal element for element
// (hotengine.TestIndexDescentMatchesHashDescent); both must run
// allocation-free at steady state.

// hashDescent is the scratch of the key-stack walk.
type hashDescent struct {
	stack            []keys.Key
	accepted, opened []*tree.Cell
}

func (h *hashDescent) walk(w *tree.Walker, tr *tree.Tree, gk keys.Key, gpos []vec.V3, ctr *diag.Counters) {
	gc, gr := tree.GroupSphere(gpos)
	w.Begin(gk, gc)
	h.accepted, h.opened = h.accepted[:0], h.opened[:0]
	h.stack = append(h.stack[:0], keys.Root)
	for len(h.stack) > 0 {
		k := h.stack[len(h.stack)-1]
		h.stack = h.stack[:len(h.stack)-1]
		c := tr.Cell(k)
		ctr.Traversals++
		if k == gk { // the group's own cell: taken whole, never tested
			h.opened = append(h.opened, c)
			continue
		}
		switch a := tree.Classify(c, gc, gr); {
		case a == tree.Skip:
		case a == tree.Accept:
			h.accepted = append(h.accepted, c)
		case c.Leaf:
			h.opened = append(h.opened, c)
		default:
			for oct := 0; oct < 8; oct++ {
				if c.ChildMask&(1<<uint(oct)) != 0 {
					h.stack = append(h.stack, k.Child(oct))
				}
			}
		}
	}
	w.TakeLeaves(h.opened, tr)
	w.TakeCells(h.accepted)
}

func benchDescent(b *testing.B, walk func(*tree.Walker, *tree.Tree, keys.Key, []vec.V3, *diag.Counters)) {
	sys, d := buildCluster(20000)
	tr := tree.Build(sys, d, grav.DefaultMAC(), 16)
	var w tree.Walker
	var ctr diag.Counters
	round := func() {
		for _, gk := range tr.Groups {
			g := tr.Cell(gk)
			walk(&w, tr, gk, sys.Pos[g.First:g.First+g.N], &ctr)
		}
	}
	round() // warm-up: stack, batch and list reach their high-water marks
	idleThreads()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr = diag.Counters{}
		round()
	}
	b.ReportMetric(float64(ctr.Traversals), "visits/op")
}

func BenchmarkAblation_DescentIndex(b *testing.B) {
	benchDescent(b, func(w *tree.Walker, tr *tree.Tree, gk keys.Key, gpos []vec.V3, ctr *diag.Counters) {
		w.Walk(tr, gk, gpos, ctr)
	})
}

func BenchmarkAblation_DescentHash(b *testing.B) {
	var h hashDescent
	benchDescent(b, h.walk)
}

// hashBenchKeys returns the cell keys of a real tree (Plummer sphere,
// N = 10000, bucket 16): the keys the table exists to hold. Keys made
// up by arithmetic on the coordinates share their low bits and chain
// behind a few dozen buckets of the AND-mask hash, which a tree's never
// do (tree.TestHashQualityOnRealKeys).
func hashBenchKeys() []keys.Key {
	sys, d := buildCluster(10000)
	return tree.Build(sys, d, grav.DefaultMAC(), 16).Cells.Keys()
}

func BenchmarkAblation_HashTable(b *testing.B) {
	ks := hashBenchKeys()
	t := htab.New[int](len(ks))
	for i, k := range ks {
		t.Insert(k, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(ks[i%len(ks)])
	}
	b.ReportMetric(float64(t.Stats.Probes)/float64(t.Stats.Lookups), "probes/lookup")
}

func BenchmarkAblation_HashGoMap(b *testing.B) {
	ks := hashBenchKeys()
	m := make(map[keys.Key]int, len(ks))
	for i, k := range ks {
		m[k] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m[ks[i%len(ks)]]
	}
}

// rsqrtSink receives the Rsqrt benches' sums: a result the compiler
// can see is unused lets it delete the inlined 1/math.Sqrt outright
// (the Libm row then times an empty loop, 0.16 ns).
var rsqrtSink float64

func BenchmarkAblation_RsqrtKarp(b *testing.B) {
	x := 1.0001
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += rsqrt.Rsqrt(x)
		x += 1e-9
	}
	rsqrtSink = sum
}

func BenchmarkAblation_RsqrtLibm(b *testing.B) {
	x := 1.0001
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += 1 / math.Sqrt(x)
		x += 1e-9
	}
	rsqrtSink = sum
}

func BenchmarkAblation_ABMBatching(b *testing.B) {
	// Batched requests vs the hypothetical per-request messaging:
	// run a parallel force evaluation, then compare the actual
	// message count (batched) to the request count (what unbatched
	// active messages would have sent).
	bodies := PlummerSphere(4000, 1.0, 17)
	var msgs, requests float64
	for i := 0; i < b.N; i++ {
		res, err := RunParallel(ParallelConfig{Config: Defaults(), Procs: 4}, bodies, nil)
		if err != nil {
			b.Fatal(err)
		}
		msgs = float64(res.MaxMsgs)
		requests = float64(res.RemoteCells)
	}
	if msgs > 0 {
		b.ReportMetric(requests/msgs, "requests_per_message")
	}
}

// Sanity: the headline Gflops machinery is consistent end to end.
func BenchmarkPaperAccounting(b *testing.B) {
	sys, d := buildCluster(10000)
	tr := tree.Build(sys, d, grav.DefaultMAC(), 16)
	var ctr diag.Counters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr = tr.Gravity(1e-6)
	}
	b.ReportMetric(float64(ctr.Flops())/float64(ctr.Interactions()), "flops/interaction")
	_ = vec.V3{}
}
