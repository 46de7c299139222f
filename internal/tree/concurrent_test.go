package tree

import (
	"testing"

	"repro/internal/grav"
)

func TestGravityConcurrentMatchesSerial(t *testing.T) {
	sys, d := cloud(3000, 21)
	tr := Build(sys, d, grav.DefaultMAC(), 16)
	ctrSerial := tr.Gravity(1e-6)
	accSerial := append(sys.Acc[:0:0], sys.Acc...)
	potSerial := append(sys.Pot[:0:0], sys.Pot...)
	workSerial := append(sys.Work[:0:0], sys.Work...)

	// 0 workers means GOMAXPROCS.
	for _, workers := range []int{0, 1, 2, 4, 8} {
		pool := NewForcePool(workers)
		ctr := pool.Gravity(tr, 1e-6)
		pool.Close()
		if ctr.PP != ctrSerial.PP || ctr.PC != ctrSerial.PC {
			t.Fatalf("workers=%d: counters differ: %+v vs %+v", workers, ctr, ctrSerial)
		}
		for i := range accSerial {
			// Identical arithmetic per group: bitwise equality.
			if sys.Acc[i] != accSerial[i] || sys.Pot[i] != potSerial[i] {
				t.Fatalf("workers=%d body %d: results differ from serial", workers, i)
			}
			if sys.Work[i] != workSerial[i] {
				t.Fatalf("workers=%d body %d: work weight differs", workers, i)
			}
		}
	}
}

func BenchmarkGravityConcurrent(b *testing.B) {
	sys, d := cloud(30000, 22)
	tr := Build(sys, d, grav.DefaultMAC(), 16)
	pool := NewForcePool(0)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Gravity(tr, 1e-6)
	}
}
