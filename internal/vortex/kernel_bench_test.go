package vortex

import (
	"testing"

	"repro/internal/diag"
	"repro/internal/ic"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
	"repro/internal/vec"
)

// The kernel ablation: the Biot-Savart kernels alone, dispatching
// (AVX2 where the probe finds it) against the Go loops, on the
// interaction lists of a ring pair at the service's vortex-job size
// (2 rings x 400 x 4 = 3 200 particles, sigma 0.12, theta 0.5, one
// rank). ns/op over interactions/op is ns per interaction.

const benchSigma = 0.12

// ringFixture is one group's targets and its captured list.
type ringFixture struct {
	pos, alpha []vec.V3
	list       vList
}

// captureRingLists evaluates the ring pair once and then snapshots
// every group's list from a second walk.
func captureRingLists(b *testing.B) []ringFixture {
	b.Helper()
	var out []ringFixture
	cp := func(s []float64) []float64 { return append([]float64(nil), s...) }
	msg.Run(1, func(c *msg.Comm) {
		e := NewParallel(c, ic.RingPair(benchSigma, 400, 4), benchSigma, 0.5)
		e.Eval()
		e.WalkGroups("walk", &e.walk, func(_ keys.Key, g *tree.Cell, _ *diag.Counters) {
			lo, hi := g.First, g.First+g.N
			l := &e.list
			out = append(out, ringFixture{
				pos:   append([]vec.V3(nil), e.Sys.Pos[lo:hi]...),
				alpha: append([]vec.V3(nil), e.Sys.Alpha[lo:hi]...),
				list: vList{
					sx: cp(l.sx), sy: cp(l.sy), sz: cp(l.sz),
					sax: cp(l.sax), say: cp(l.say), saz: cp(l.saz),
					cells: append([]cellMoment(nil), l.cells...),
				},
			})
		})
	})
	if len(out) == 0 {
		b.Fatal("the ring pair walked no groups")
	}
	return out
}

func benchEvalVortex(b *testing.B,
	mono func(*vTargets, []cellMoment, float64) uint64,
	pp func(*vTargets, *vList, float64) uint64) {
	fx := captureRingLists(b)
	const s2 = benchSigma * benchSigma
	var tg vTargets
	round := func() uint64 {
		var n uint64
		for i := range fx {
			f := &fx[i]
			tg.load(f.pos, f.alpha)
			n += mono(&tg, f.list.cells, s2)
			n += pp(&tg, &f.list, s2)
		}
		return n
	}
	round() // warm-up: the target block reaches its high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	var inter uint64
	for i := 0; i < b.N; i++ {
		inter = round()
	}
	b.ReportMetric(float64(inter), "interactions/op")
}

func BenchmarkAblation_EvalVortex(b *testing.B) { benchEvalVortex(b, evalVelMono, evalVelPP) }
func BenchmarkAblation_EvalVortexGo(b *testing.B) {
	benchEvalVortex(b, evalVelMonoGo, evalVelPPGo)
}
