package grav

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

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

// The batched SoA kernels must reproduce the float64 references to
// the float32 kernels' round-off (RoundOff) and report identical
// interaction counts.
func TestEvalPPMatchesAccelAt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tpos, _ := randBodies(rng, 13)
	spos, smass := randBodies(rng, 29)
	eps2 := 1e-4

	acc := make([]vec.V3, len(tpos))
	pot := make([]float64, len(tpos))
	nRef := addAccel(tpos, acc, pot, spos, smass, eps2)

	var tg Targets
	tg.Load(tpos, nil)
	var l InteractionList
	l.AddRuns([]Run{{Pos: spos, Mass: smass}})
	nBatch := EvalPP(&tg, &l, eps2)
	acc2 := make([]vec.V3, len(tpos))
	pot2 := make([]float64, len(tpos))
	tg.Store(acc2, pot2)

	if nRef != nBatch {
		t.Fatalf("counts differ: float64 %d batched %d", nRef, nBatch)
	}
	for i := range acc {
		if relDiff(acc[i].X, acc2[i].X) > RoundOff || relDiff(pot[i], pot2[i]) > RoundOff {
			t.Fatalf("body %d: float64 %v/%g batched %v/%g", i, acc[i], pot[i], acc2[i], pot2[i])
		}
	}
}

func TestEvalSelfMatchesAccelAt(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pos, mass := randBodies(rng, 17)
	eps2 := 1e-4

	acc := make([]vec.V3, len(pos))
	pot := make([]float64, len(pos))
	nRef := addSelfAccel(pos, mass, acc, pot, eps2)

	var tg Targets
	tg.Load(pos, mass)
	nBatch := EvalSelf(&tg, eps2)
	acc2 := make([]vec.V3, len(pos))
	pot2 := make([]float64, len(pos))
	tg.Store(acc2, pot2)

	if nRef != nBatch {
		t.Fatalf("counts differ: float64 %d batched %d", nRef, nBatch)
	}
	for i := range acc {
		if relDiff(acc[i].Y, acc2[i].Y) > 1e-14 || relDiff(pot[i], pot2[i]) > 1e-14 {
			t.Fatalf("body %d: float64 %v/%g batched %v/%g", i, acc[i], pot[i], acc2[i], pot2[i])
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
		var nRef uint64
		for c := range cells {
			nRef += M2P(tpos, acc, pot, &cells[c], quad, eps2)
		}

		var tg Targets
		tg.Load(tpos, nil)
		var l InteractionList
		for c := range cells {
			l.AddCells([]*Multipole{&cells[c]})
		}
		nBatch := EvalM2P(&tg, &l, quad, eps2)
		acc2 := make([]vec.V3, len(tpos))
		pot2 := make([]float64, len(tpos))
		tg.Store(acc2, pot2)

		if nRef != nBatch {
			t.Fatalf("quad=%v: counts differ: float64 %d batched %d", quad, nRef, nBatch)
		}
		for i := range acc {
			if relDiff(acc[i].Z, acc2[i].Z) > RoundOff || relDiff(pot[i], pot2[i]) > RoundOff {
				t.Fatalf("quad=%v body %d: float64 %v/%g batched %v/%g", quad, i, acc[i], pot[i], acc2[i], pot2[i])
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
		l.AddRuns([]Run{{Pos: spos, Mass: smass}})
		l.AddCells([]*Multipole{&mp})
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

// TestMultipoleLayout pins the Multipole offsets the lane gather reads
// (cells8): M, COM and Q, ten float64 in the order of the slab columns,
// from the start of the struct. A reordered Multipole fails here, not
// in a list.
func TestMultipoleLayout(t *testing.T) {
	var mp Multipole
	com, q := unsafe.Offsetof(mp.COM), unsafe.Offsetof(mp.Q)
	got := []uintptr{
		unsafe.Offsetof(mp.M),
		com + unsafe.Offsetof(mp.COM.X), com + unsafe.Offsetof(mp.COM.Y), com + unsafe.Offsetof(mp.COM.Z),
		q + unsafe.Offsetof(mp.Q.XX), q + unsafe.Offsetof(mp.Q.YY), q + unsafe.Offsetof(mp.Q.ZZ),
		q + unsafe.Offsetof(mp.Q.XY), q + unsafe.Offsetof(mp.Q.XZ), q + unsafe.Offsetof(mp.Q.YZ),
	}
	for i, off := range got {
		if off != uintptr(8*i) {
			t.Errorf("moment %d at offset %d, the gather reads it at %d", i, off, 8*i)
		}
	}
	if s := unsafe.Sizeof(mp); s < 80 {
		t.Errorf("Multipole is %d bytes, the gather reads 80", s)
	}
}
