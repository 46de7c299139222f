package grav_test

// Interaction kernels: the production kernels as dispatched on this
// host (blocks of eight targets × two sources on amd64 with AVX-512,
// four × two with AVX2), the YMM path forced (the AVX2 rows), and their
// definition, the Go loops called directly, on real interaction lists
// captured from a 100k-body clustered walk so group sizes and list
// lengths are production ones; and the dispatched kernels on a group of
// 4, 8 or 16 targets over a long random list (the Row rows: a lone
// tail block, one full ZMM block, two). All must run allocation-free
// at steady state.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/keys"
	"repro/internal/tree"
	"repro/internal/vec"
)

// evalFixture is one group's captured evaluation input: the target
// block and a deep copy of the interaction list the walk built for it.
type evalFixture struct {
	gpos  []vec.V3
	gmass []float64
	list  grav.InteractionList
}

// captureEvalFixtures walks a 100k-body clustered tree and snapshots
// the interaction lists of up to maxGroups groups spread evenly across
// the Morton order.
func captureEvalFixtures(b *testing.B, maxGroups int) []evalFixture {
	b.Helper()
	sys := ic.Plummer(100000, 1.0, 11)
	d := keys.NewDomain(sys.Pos)
	sys.AssignKeys(d)
	sys.SortByKey()
	mac := grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-3, Quad: true}
	tr := tree.Build(sys, d, mac, 16)
	stride := max(len(tr.Groups)/maxGroups, 1)
	var w tree.Walker
	var ctr diag.Counters
	var out []evalFixture
	cp := func(s []float32) []float32 { return append([]float32(nil), s...) }
	for gi := 0; gi < len(tr.Groups) && len(out) < maxGroups; gi += stride {
		gk := tr.Groups[gi]
		g := tr.Cell(gk)
		lo, hi := g.First, g.First+g.N
		if m := w.Walk(tr, gk, sys.Pos[lo:hi], &ctr); m != nil {
			b.Fatal("serial walk reported missing cells")
		}
		out = append(out, evalFixture{
			gpos:  append([]vec.V3(nil), sys.Pos[lo:hi]...),
			gmass: append([]float64(nil), sys.Mass[lo:hi]...),
			list: grav.InteractionList{
				Origin: w.List.Origin,
				SX:     cp(w.List.SX), SY: cp(w.List.SY), SZ: cp(w.List.SZ), SM: cp(w.List.SM),
				CM: cp(w.List.CM), CX: cp(w.List.CX), CY: cp(w.List.CY), CZ: cp(w.List.CZ),
				QXX: cp(w.List.QXX), QYY: cp(w.List.QYY), QZZ: cp(w.List.QZZ),
				QXY: cp(w.List.QXY), QXZ: cp(w.List.QXZ), QYZ: cp(w.List.QYZ),
				Self: w.List.Self,
			},
		})
	}
	return out
}

// evalPPFunc and evalM2PFunc are the signatures the dispatching kernels
// and the Go loops share.
type (
	evalPPFunc  func(*grav.Targets, *grav.InteractionList, float64) uint64
	evalM2PFunc func(*grav.Targets, *grav.InteractionList, bool, float64) uint64
)

func benchEvalPP(b *testing.B, evalPP evalPPFunc) {
	fx := captureEvalFixtures(b, 48)
	var tg grav.Targets
	round := func() uint64 {
		var n uint64
		for i := range fx {
			f := &fx[i]
			tg.Load(f.gpos, f.gmass)
			n += evalPP(&tg, &f.list, 1e-6)
			if f.list.Self {
				n += grav.EvalSelf(&tg, 1e-6)
			}
		}
		return n
	}
	round() // warm-up: target block reaches its high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	var inter uint64
	for i := 0; i < b.N; i++ {
		inter = round()
	}
	b.ReportMetric(float64(inter), "interactions/op")
}

func BenchmarkAblation_EvalPP(b *testing.B) { benchEvalPP(b, grav.EvalPP) }
func BenchmarkAblation_EvalPPAVX2(b *testing.B) {
	grav.Lanes8(b)
	benchEvalPP(b, grav.EvalPP)
}
func BenchmarkAblation_EvalPPGo(b *testing.B) { benchEvalPP(b, grav.EvalPPGo) }

func benchEvalM2P(b *testing.B, evalM2P evalM2PFunc) {
	fx := captureEvalFixtures(b, 48)
	var tg grav.Targets
	round := func() uint64 {
		var n uint64
		for i := range fx {
			f := &fx[i]
			tg.Load(f.gpos, nil)
			n += evalM2P(&tg, &f.list, true, 1e-6)
		}
		return n
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	var inter uint64
	for i := 0; i < b.N; i++ {
		inter = round()
	}
	b.ReportMetric(float64(inter), "interactions/op")
}

func BenchmarkAblation_EvalM2P(b *testing.B) { benchEvalM2P(b, grav.EvalM2P) }
func BenchmarkAblation_EvalM2PAVX2(b *testing.B) {
	grav.Lanes8(b)
	benchEvalM2P(b, grav.EvalM2P)
}
func BenchmarkAblation_EvalM2PGo(b *testing.B) { benchEvalM2P(b, grav.EvalM2PGo) }

// rowSources is the row benches' list length: long enough that the
// block's set-up and the sums' store are noise against the sweep.
const rowSources = 4096

// rowTargets are the Row benches' group sizes.
var rowTargets = []int{4, 8, 16}

// benchEvalRow times a group of nt targets over rowSources random
// sources (or cells) as dispatched, and reports ns per source row and
// per interaction: a kernel's throughput on a block shape with no
// list-length mix in it, which the fixture benches above carry.
func benchEvalRow(b *testing.B, nt int, eval func(*grav.Targets, *grav.InteractionList) uint64) {
	rng := rand.New(rand.NewSource(33))
	col := func(n int, scale float64) []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = scale * (2*rng.Float64() - 1)
		}
		return c
	}
	col32 := func(n int, scale float64) []float32 {
		c := make([]float32, n)
		for i := range c {
			c[i] = float32(scale * (2*rng.Float64() - 1))
		}
		return c
	}
	tg := grav.Targets{X: col(nt, 1), Y: col(nt, 1), Z: col(nt, 1),
		AX: col(nt, 0), AY: col(nt, 0), AZ: col(nt, 0), Pot: col(nt, 0)}
	l := grav.InteractionList{
		SX: col32(rowSources, 4), SY: col32(rowSources, 4), SZ: col32(rowSources, 4), SM: col32(rowSources, 1),
		CM: col32(rowSources, 1), CX: col32(rowSources, 4), CY: col32(rowSources, 4), CZ: col32(rowSources, 4),
		QXX: col32(rowSources, .1), QYY: col32(rowSources, .1), QZZ: col32(rowSources, .1),
		QXY: col32(rowSources, .1), QXZ: col32(rowSources, .1), QYZ: col32(rowSources, .1),
	}
	eval(&tg, &l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval(&tg, &l)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rowSources, "ns/row")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rowSources/float64(nt), "ns/inter")
}

func benchEvalRows(b *testing.B, eval func(*grav.Targets, *grav.InteractionList) uint64) {
	for _, nt := range rowTargets {
		b.Run(fmt.Sprintf("targets=%d", nt), func(b *testing.B) { benchEvalRow(b, nt, eval) })
	}
}

func BenchmarkAblation_EvalRowPP(b *testing.B) {
	benchEvalRows(b, func(t *grav.Targets, l *grav.InteractionList) uint64 { return grav.EvalPP(t, l, 1e-6) })
}

func BenchmarkAblation_EvalRowM2P(b *testing.B) {
	benchEvalRows(b, func(t *grav.Targets, l *grav.InteractionList) uint64 { return grav.EvalM2P(t, l, true, 1e-6) })
}

// listFixture is one group's list build input: the moments of the cells
// its walk accepted and the runs of bodies of the leaves it opened,
// read in place from the tree, and the group's origin.
type listFixture struct {
	origin vec.V3
	cells  []*grav.Multipole
	runs   []grav.Run
}

// captureListFixtures walks the eval benches' 100k-body clustered tree
// and keeps the batches up to maxGroups groups' walks hand over.
func captureListFixtures(b *testing.B, maxGroups int) []listFixture {
	b.Helper()
	sys := ic.Plummer(100000, 1.0, 11)
	d := keys.NewDomain(sys.Pos)
	sys.AssignKeys(d)
	sys.SortByKey()
	tr := tree.Build(sys, d, grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-3, Quad: true}, 16)
	stride := max(len(tr.Groups)/maxGroups, 1)
	var desc tree.Descent
	var out []listFixture
	for gi := 0; gi < len(tr.Groups) && len(out) < maxGroups; gi += stride {
		gk := tr.Groups[gi]
		g := tr.Cell(gk)
		gc, gr := tree.GroupSphere(sys.Pos[g.First : g.First+g.N])
		desc.Aim(gk, gc, gr)
		tr.Descend(&desc, 0, 1, true)
		f := listFixture{origin: gc}
		for _, c := range desc.Accepted {
			f.cells = append(f.cells, &c.Mp)
		}
		for _, c := range desc.Opened {
			if c.Key != gk {
				pos, mass := tr.LeafBodies(c)
				f.runs = append(f.runs, grav.Run{Pos: pos, Mass: mass})
			}
		}
		out = append(out, f)
	}
	return out
}

// benchListBuild times the list build of the captured groups: their
// accepted cells gathered into the slab (AddCells), their opened
// leaves' bodies converted into the source columns (AddRuns), both as
// dispatched. It reports ns per list row, cell or body.
func benchListBuild(b *testing.B) {
	fx := captureListFixtures(b, 48)
	var l grav.InteractionList
	round := func() (rows int) {
		for i := range fx {
			f := &fx[i]
			l.Reset(f.origin)
			l.AddCells(f.cells)
			l.AddRuns(f.runs)
			rows += l.NCells() + l.NSources()
		}
		return rows
	}
	rows := round() // warm-up: the list reaches its high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(rows), "rows/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkAblation_ListBuild is the list build as dispatched (the
// lane routines on an AVX-512 host); ListBuildGo forces the Go loops,
// the path of every other host.
func BenchmarkAblation_ListBuild(b *testing.B) { benchListBuild(b) }
func BenchmarkAblation_ListBuildGo(b *testing.B) {
	grav.Lanes8(b)
	benchListBuild(b)
}
