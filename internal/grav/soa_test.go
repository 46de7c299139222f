package grav

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

func randBodies(rng *rand.Rand, n int) ([]vec.V3, []float64) {
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		mass[i] = rng.Float64() + 0.1
	}
	return pos, mass
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	s := math.Abs(a) + math.Abs(b)
	if s == 0 {
		return 0
	}
	return d / s
}

// The batched SoA kernels must reproduce the fused AoS kernels to
// the float32 kernels' round-off (RoundOff) and report identical
// interaction counts.
func TestEvalPPMatchesPPTile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tpos, _ := randBodies(rng, 13)
	spos, smass := randBodies(rng, 29)
	eps2 := 1e-4

	acc := make([]vec.V3, len(tpos))
	pot := make([]float64, len(tpos))
	nFused := PPTile(tpos, acc, pot, spos, smass, eps2)

	var tg Targets
	tg.Load(tpos, nil)
	var l InteractionList
	l.AddBodies(spos, smass)
	nBatch := EvalPP(&tg, &l, eps2)
	acc2 := make([]vec.V3, len(tpos))
	pot2 := make([]float64, len(tpos))
	tg.Store(acc2, pot2)

	if nFused != nBatch {
		t.Fatalf("counts differ: fused %d batched %d", nFused, nBatch)
	}
	for i := range acc {
		if relDiff(acc[i].X, acc2[i].X) > RoundOff || relDiff(pot[i], pot2[i]) > RoundOff {
			t.Fatalf("body %d: fused %v/%g batched %v/%g", i, acc[i], pot[i], acc2[i], pot2[i])
		}
	}
}

func TestEvalSelfMatchesPPSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pos, mass := randBodies(rng, 17)
	eps2 := 1e-4

	acc := make([]vec.V3, len(pos))
	pot := make([]float64, len(pos))
	nFused := PPSelf(pos, mass, acc, pot, eps2)

	var tg Targets
	tg.Load(pos, mass)
	nBatch := EvalSelf(&tg, eps2)
	acc2 := make([]vec.V3, len(pos))
	pot2 := make([]float64, len(pos))
	tg.Store(acc2, pot2)

	if nFused != nBatch {
		t.Fatalf("counts differ: fused %d batched %d", nFused, nBatch)
	}
	for i := range acc {
		if relDiff(acc[i].Y, acc2[i].Y) > 1e-14 || relDiff(pot[i], pot2[i]) > 1e-14 {
			t.Fatalf("body %d: fused %v/%g batched %v/%g", i, acc[i], pot[i], acc2[i], pot2[i])
		}
	}
}

func TestEvalM2PMatchesM2P(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tpos, _ := randBodies(rng, 11)
	eps2 := 1e-6
	// Moments of two well-separated clumps.
	var cells []Multipole
	for c := 0; c < 3; c++ {
		pos, mass := randBodies(rng, 20)
		off := vec.V3{X: 10 * float64(c+1), Y: -5, Z: 3}
		for i := range pos {
			pos[i] = pos[i].Add(off)
		}
		cells = append(cells, FromBodies(pos, mass))
	}
	for _, quad := range []bool{false, true} {
		acc := make([]vec.V3, len(tpos))
		pot := make([]float64, len(tpos))
		var nFused uint64
		for c := range cells {
			nFused += M2P(tpos, acc, pot, &cells[c], quad, eps2)
		}

		var tg Targets
		tg.Load(tpos, nil)
		var l InteractionList
		for c := range cells {
			l.AddCell(&cells[c])
		}
		nBatch := EvalM2P(&tg, &l, quad, eps2)
		acc2 := make([]vec.V3, len(tpos))
		pot2 := make([]float64, len(tpos))
		tg.Store(acc2, pot2)

		if nFused != nBatch {
			t.Fatalf("quad=%v: counts differ: fused %d batched %d", quad, nFused, nBatch)
		}
		for i := range acc {
			if relDiff(acc[i].Z, acc2[i].Z) > RoundOff || relDiff(pot[i], pot2[i]) > RoundOff {
				t.Fatalf("quad=%v body %d: fused %v/%g batched %v/%g", quad, i, acc[i], pot[i], acc2[i], pot2[i])
			}
		}
	}
}

// A reused list and target block must reach a zero-allocation steady
// state: this is what makes a rank's one long-lived Walker effective.
func TestListReuseAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tpos, tmass := randBodies(rng, 16)
	spos, smass := randBodies(rng, 64)
	mp := FromBodies(spos, smass)
	var tg Targets
	var l InteractionList
	acc := make([]vec.V3, len(tpos))
	pot := make([]float64, len(tpos))
	round := func() {
		l.Reset(vec.V3{X: 0.5, Y: 0.5, Z: 0.5})
		l.AddBodies(spos, smass)
		l.AddCell(&mp)
		l.Self = true
		tg.Load(tpos, tmass)
		EvalM2P(&tg, &l, true, 1e-6)
		EvalPP(&tg, &l, 1e-6)
		EvalSelf(&tg, 1e-6)
		tg.Store(acc, pot)
	}
	round() // warm-up: buffers reach their high-water mark
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("steady-state evaluation allocates %v times per round", allocs)
	}
}
