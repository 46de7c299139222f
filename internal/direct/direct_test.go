package direct

import (
	"math"
	"math/rand"
	"testing"

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

func TestRingMatchesSerial(t *testing.T) {
	const n = 240
	const eps2 = 1e-5
	pos, mass := randomBodies(n, 2)
	wantAcc := make([]vec.V3, n)
	wantPot := make([]float64, n)
	Serial(pos, mass, wantAcc, wantPot, eps2)

	for _, np := range []int{1, 2, 3, 5, 8} {
		gotAcc := make([]vec.V3, n)
		gotPot := make([]float64, n)
		var totalPP uint64
		pps := make([]uint64, np)
		msg.Run(np, func(c *msg.Comm) {
			lo := c.Rank() * n / np
			hi := (c.Rank() + 1) * n / np
			ctr := Ring(c, pos[lo:hi], mass[lo:hi], gotAcc[lo:hi], gotPot[lo:hi], eps2)
			pps[c.Rank()] = ctr.PP
		})
		for _, v := range pps {
			totalPP += v
		}
		if totalPP != n*(n-1) {
			t.Fatalf("np=%d: total PP = %d, want %d", np, totalPP, n*(n-1))
		}
		for i := 0; i < n; i++ {
			if d := gotAcc[i].Sub(wantAcc[i]).Norm(); d > 1e-12*(wantAcc[i].Norm()+1) {
				t.Fatalf("np=%d body %d: acc %v vs %v", np, i, gotAcc[i], wantAcc[i])
			}
			if math.Abs(gotPot[i]-wantPot[i]) > 1e-12*(math.Abs(wantPot[i])+1) {
				t.Fatalf("np=%d body %d: pot", np, i)
			}
		}
	}
}

func TestRingUnevenPartition(t *testing.T) {
	// Ranks with different body counts (including an empty one).
	const eps2 = 1e-5
	pos, mass := randomBodies(10, 3)
	wantAcc := make([]vec.V3, 10)
	wantPot := make([]float64, 10)
	Serial(pos, mass, wantAcc, wantPot, eps2)

	cuts := []int{0, 7, 7, 10} // rank 1 is empty
	gotAcc := make([]vec.V3, 10)
	gotPot := make([]float64, 10)
	msg.Run(3, func(c *msg.Comm) {
		lo, hi := cuts[c.Rank()], cuts[c.Rank()+1]
		Ring(c, pos[lo:hi], mass[lo:hi], gotAcc[lo:hi], gotPot[lo:hi], eps2)
	})
	for i := 0; i < 10; i++ {
		if d := gotAcc[i].Sub(wantAcc[i]).Norm(); d > 1e-12 {
			t.Fatalf("body %d: acc mismatch", i)
		}
	}
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
