package direct

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grav"
	"repro/internal/msg"
	"repro/internal/vec"
)

func randomBodies(n int, seed int64) ([]vec.V3, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		mass[i] = rng.Float64() + 0.1
	}
	return pos, mass
}

func TestSerialCounters(t *testing.T) {
	pos, mass := randomBodies(100, 1)
	acc := make([]vec.V3, 100)
	pot := make([]float64, 100)
	ctr := Serial(pos, mass, acc, pot, 1e-4)
	if ctr.PP != 100*99 {
		t.Fatalf("PP = %d", ctr.PP)
	}
	if ctr.Flops() != 100*99*38 {
		t.Fatalf("flops = %d", ctr.Flops())
	}
}

// ringVsSerial runs Ring with rank r holding bodies [cuts[r],
// cuts[r+1]) and holds it to Serial: the interaction count exactly
// n(n-1), every body's force within grav.RoundOff of the largest |a|
// and its potential within RoundOff relative. It returns the largest
// force difference over the largest |a|.
func ringVsSerial(t *testing.T, pos []vec.V3, mass []float64, cuts []int, eps2 float64) float64 {
	t.Helper()
	n, np := len(pos), len(cuts)-1
	wantAcc := make([]vec.V3, n)
	wantPot := make([]float64, n)
	Serial(pos, mass, wantAcc, wantPot, eps2)
	scale := 0.0
	for _, a := range wantAcc {
		scale = max(scale, a.Norm())
	}

	gotAcc := make([]vec.V3, n)
	gotPot := make([]float64, n)
	pps := make([]uint64, np)
	msg.Run(np, func(c *msg.Comm) {
		lo, hi := cuts[c.Rank()], cuts[c.Rank()+1]
		pps[c.Rank()] = Ring(c, pos[lo:hi], mass[lo:hi], gotAcc[lo:hi], gotPot[lo:hi], eps2).PP
	})
	var pp uint64
	for _, v := range pps {
		pp += v
	}
	if pp != uint64(n*(n-1)) {
		t.Fatalf("cuts %v: total PP = %d, want %d", cuts, pp, n*(n-1))
	}
	worst := 0.0
	for i := range pos {
		d := gotAcc[i].Sub(wantAcc[i]).Norm() / scale
		worst = max(worst, d)
		if d > grav.RoundOff {
			t.Fatalf("cuts %v body %d: acc %v vs %v", cuts, i, gotAcc[i], wantAcc[i])
		}
		if math.Abs(gotPot[i]-wantPot[i]) > grav.RoundOff*math.Abs(wantPot[i]) {
			t.Fatalf("cuts %v body %d: pot %g vs %g", cuts, i, gotPot[i], wantPot[i])
		}
	}
	return worst
}

// The ring runs the production kernels (float32 lanes folded into
// float64), so against the exact float64 Serial it holds their
// round-off, not Serial's own: every force within grav.RoundOff =
// 7.6e-6 of the largest |a|, with the count exact, at every rank count.
// The bodies are split as RingRun splits them: sorted by key over the
// whole input, rank r holding the contiguous block [r*n/np,
// (r+1)*n/np), so a rank's tiles are compact pieces of the curve. The
// worst body is the one with the largest |a|, which its neighbour
// 0.005 away sets; the pair's float32 coordinates, relative to the
// tile's centre, each carry a rounding of up to 2^-24 of their distance
// from it. Measured (-v): 1.4e-8 at np = 1, 1.2e-8 to 3.8e-8 at np =
// 2, 3 and 5, 4.5e-8 at np = 8 (5.5e-6 when each rank held a block of
// the unsorted input, its 30 bodies spanning the cube).
func TestRingMatchesSerial(t *testing.T) {
	const n = 240
	b := keyOrder(randomBodies(n, 2))
	for _, np := range []int{1, 2, 3, 5, 8} {
		cuts := make([]int, np+1)
		for r := range cuts {
			cuts[r] = r * n / np
		}
		t.Logf("np=%d: worst force difference %.2g of the largest |a|", np, ringVsSerial(t, b.pos, b.mass, cuts, 1e-5))
	}
}

// Ranks with different body counts, one of them empty.
func TestRingUnevenPartition(t *testing.T) {
	pos, mass := randomBodies(10, 3)
	ringVsSerial(t, pos, mass, []int{0, 7, 7, 10}, 1e-5)
}

func TestRingTrafficScalesLinearly(t *testing.T) {
	// Communication volume per rank should be ~32 bytes * N (each
	// rank forwards every block once), the paper's N-vs-N^2 argument.
	const n = 128
	pos, mass := randomBodies(n, 4)
	acc := make([]vec.V3, n)
	pot := make([]float64, n)
	w := msg.Run(4, func(c *msg.Comm) {
		lo := c.Rank() * n / 4
		hi := (c.Rank() + 1) * n / 4
		Ring(c, pos[lo:hi], mass[lo:hi], acc[lo:hi], pot[lo:hi], 1e-4)
	})
	perRank := w.RankTraffic(0).Total()
	wantBytes := uint64(32 * n / 4 * 3) // 3 forwards of 32-body blocks
	if perRank.Bytes != wantBytes {
		t.Fatalf("rank 0 sent %d bytes, want %d", perRank.Bytes, wantBytes)
	}
}

func BenchmarkDirectSerial1k(b *testing.B) {
	pos, mass := randomBodies(1000, 5)
	acc := make([]vec.V3, 1000)
	pot := make([]float64, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Serial(pos, mass, acc, pot, 1e-4)
	}
	b.ReportMetric(1000*999*38, "flops/op")
}

// The benchmark counts n(n-1) interactions per step whatever the rank
// count, uneven blocks included.
func TestRingRunCounts(t *testing.T) {
	pos, mass := randomBodies(101, 5)
	for _, np := range []int{1, 3, 8} {
		if pp := RingRun(np, 2, pos, mass, 1e-4); pp != 2*101*100 {
			t.Errorf("np=%d: %d interactions, want %d", np, pp, 2*101*100)
		}
	}
}
