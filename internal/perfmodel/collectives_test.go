package perfmodel

import (
	"math"
	"testing"
	"time"
)

// maxOf is the closed form for the expected maximum of m independent
// message delays, each 0 with probability 1-q and uniform in (0, L]
// otherwise: L (1 - (1 - (1-q)^(m+1)) / (q (m+1))).
func maxOf(m int, q float64, l time.Duration) float64 {
	return float64(l) * (1 - (1-math.Pow(1-q, float64(m+1)))/(q*float64(m+1)))
}

// One collective has a closed form. An allreduce on np ranks is np-1
// messages into rank 0, which waits for the slowest, then a broadcast:
// on two and three ranks every rank hangs off the root directly, so
// that leg is again the slowest of np-1. An all-to-all ends when the
// slowest of its np(np-1) messages lands.
func TestExpectedWallMatchesClosedFormOfOneCollective(t *testing.T) {
	const l = 128 * time.Millisecond
	for _, q := range []float64{1.0 / 16, 0.5, 1} {
		for _, tc := range []struct {
			name string
			op   Collective
			np   int
			want float64
		}{
			{"allreduce np=2", ReduceBcast, 2, 2 * maxOf(1, q, l)},
			{"allreduce np=3", ReduceBcast, 3, 2 * maxOf(2, q, l)},
			{"alltoall np=4", AllToAll, 4, maxOf(12, q, l)},
		} {
			got := float64(ExpectedWall([]Collective{tc.op}, tc.np, q, l))
			if math.Abs(got-tc.want) > 0.05*tc.want { // two standard errors of the noisiest row
				t.Errorf("%s, 1 message in %g delayed: %.2f ms, closed form %.2f ms", tc.name, 1/q,
					got/1e6, tc.want/1e6)
			}
		}
	}
	if got := ExpectedWall([]Collective{ReduceBcast, AllToAll}, 4, 0, l); got != 0 {
		t.Errorf("no message delayed: %v, want 0", got)
	}
	if got := ExpectedWall(nil, 4, 0.5, l); got != 0 {
		t.Errorf("no collectives: %v, want 0", got)
	}
}

// The uniform gravity step on four ranks, before and after it went
// from ten collectives to six, under the dist-latency workload's
// injector. This is the prediction EXPERIMENTS.md ("Six collectives")
// sets beside the measured op_wall_ms; the test pins only that the
// model is deterministic and ranks the two the right way round.
func TestExpectedWallOfTheUniformStep(t *testing.T) {
	const rb, a2a = ReduceBcast, AllToAll
	ten := []Collective{rb, rb, rb, rb, rb, a2a, rb, rb, a2a, a2a} // box; 4 of search; bodies; branches; bounds; push; closing
	six := []Collective{rb, rb, a2a, rb, a2a, rb}                  // box; search; bodies; branches+bounds; push; vote
	before := ExpectedWall(ten, 4, 1.0/16, 128*time.Millisecond)
	after := ExpectedWall(six, 4, 1.0/16, 128*time.Millisecond)
	if again := ExpectedWall(six, 4, 1.0/16, 128*time.Millisecond); again != after {
		t.Errorf("same arguments, %v then %v", after, again)
	}
	if after >= before {
		t.Errorf("six collectives modelled at %v, ten at %v", after, before)
	}
	t.Logf("ten collectives (78 messages) %v, six (48 messages) %v: predicted saving %v", before, after, before-after)
}
