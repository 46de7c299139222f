package perfmodel

import (
	"fmt"
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
	rb, a2a := ReduceBcast, AllToAll
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

// The same step with the body exchange sparse, as a warm step sends it:
// only the pairs of ranks whose intervals the splitter windows say can
// hold bodies for each other. The test pins that the model is
// deterministic, that a sparse exchange over every pair is the dense
// one to the bit, that a lone sparse exchange of m messages ends with
// the slowest of them (the closed form), and that any proper subset of
// the pairs is modelled no slower than the dense exchange -- not on
// average, in every draw, since a sparse exchange draws the dense one's
// delays and drops some. EXPERIMENTS.md ("Sparse exchange") sets the
// prediction for the pairs a dist-latency run planned beside the
// measured op_wall_ms.
func TestExpectedWallOfTheSparseExchange(t *testing.T) {
	const np, q, l = 4, 1.0 / 16, 128 * time.Millisecond
	rb := ReduceBcast
	step := func(bodies Collective) []Collective {
		return []Collective{rb, rb, bodies, rb, AllToAll, rb} // box; search; bodies; branches+bounds; push; vote
	}
	var every [][2]int
	for s := 0; s < np; s++ {
		for r := 0; r < np; r++ {
			if s != r {
				every = append(every, [2]int{s, r})
			}
		}
	}
	dense := ExpectedWall(step(AllToAll), np, q, l)
	if all := ExpectedWall(step(SparseAllToAll(every...)), np, q, l); all != dense {
		t.Errorf("every pair listed: %v, the dense exchange %v", all, dense)
	}

	neighbours := [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}, {3, 2}}
	subsets := map[string][][2]int{
		"none":                 nil,
		"one":                  {{2, 1}},
		"one way to the right": {{0, 1}, {1, 2}, {2, 3}},
		"neighbours":           neighbours,
		"all but one":          every[1:],
	}
	for bits := 1; bits < 1<<len(every)-1; bits += 97 { // a spread of the 4094 others
		var sub [][2]int
		for i, pr := range every {
			if bits>>i&1 == 1 {
				sub = append(sub, pr)
			}
		}
		subsets[fmt.Sprintf("mask %#x", bits)] = sub
	}
	for name, sub := range subsets {
		got := ExpectedWall(step(SparseAllToAll(sub...)), np, q, l)
		if again := ExpectedWall(step(SparseAllToAll(sub...)), np, q, l); again != got {
			t.Errorf("%s: same arguments, %v then %v", name, got, again)
		}
		if got > dense {
			t.Errorf("%s (%d of %d pairs): %v, slower than the dense exchange's %v", name, len(sub), len(every), got, dense)
		}
		if m := len(sub); m > 0 {
			lone := float64(ExpectedWall([]Collective{SparseAllToAll(sub...)}, np, q, l))
			if want := maxOf(m, q, l); math.Abs(lone-want) > 0.05*want {
				t.Errorf("%s alone: %.2f ms, closed form for the slowest of %d messages %.2f ms", name, lone/1e6, m, want/1e6)
			}
		}
	}
	for _, name := range []string{"none", "one", "one way to the right", "neighbours"} {
		sub := subsets[name]
		got := ExpectedWall(step(SparseAllToAll(sub...)), np, q, l)
		t.Logf("six collectives, body exchange over %s (%d messages in the step): %v; dense (48) %v: saving %v",
			name, 36+len(sub), got, dense, dense-got)
	}
}

// The warm uniform step without the box allreduce: the key domain is
// predicted and checked on the splitter allgather, so a step is five
// collectives. EXPERIMENTS.md ("Five collectives") sets this prediction,
// for the body-exchange pairs a dist-latency step plans, beside the
// measured op_wall_ms. The test pins that the model is deterministic and
// that dropping a collective from the chain never costs time.
func TestExpectedWallOfTheFiveCollectiveStep(t *testing.T) {
	const np, q, l = 4, 1.0 / 16, 128 * time.Millisecond
	rb := ReduceBcast
	for _, tc := range []struct {
		name  string
		pairs [][2]int
	}{
		{"none", nil},
		{"one way to the right", [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{"neighbours", [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}, {3, 2}}},
	} {
		bodies := SparseAllToAll(tc.pairs...)
		six := ExpectedWall([]Collective{rb, rb, bodies, rb, AllToAll, rb}, np, q, l) // box; search; bodies; branches+bounds; push; vote
		five := ExpectedWall([]Collective{rb, bodies, rb, AllToAll, rb}, np, q, l)    // search+box; bodies; branches+bounds; push; vote
		if again := ExpectedWall([]Collective{rb, bodies, rb, AllToAll, rb}, np, q, l); again != five {
			t.Errorf("%s: same arguments, %v then %v", tc.name, five, again)
		}
		if five >= six {
			t.Errorf("%s: five collectives modelled at %v, six at %v", tc.name, five, six)
		}
		t.Logf("body exchange over %s: six collectives (%d messages) %v, five (%d messages) %v: predicted saving %v",
			tc.name, 36+len(tc.pairs), six, 30+len(tc.pairs), five, six-five)
	}
}

// The warm uniform step without the walk's termination vote: behind the
// push every walk completes on its first attempt, so the phase ends
// without asking and a step is four collectives. EXPERIMENTS.md ("Four
// collectives") sets this prediction, for the same body-exchange pairs
// as the five-collective step's, beside the measured op_wall_ms. The
// test pins that the model is deterministic and that dropping the vote
// never costs time.
func TestExpectedWallOfTheFourCollectiveStep(t *testing.T) {
	const np, q, l = 4, 1.0 / 16, 128 * time.Millisecond
	rb := ReduceBcast
	for _, tc := range []struct {
		name  string
		pairs [][2]int
	}{
		{"none", nil},
		{"one way to the right", [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{"neighbours", [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 3}, {3, 2}}},
	} {
		bodies := SparseAllToAll(tc.pairs...)
		five := ExpectedWall([]Collective{rb, bodies, rb, AllToAll, rb}, np, q, l) // search+box; bodies; branches+bounds; push; vote
		four := ExpectedWall([]Collective{rb, bodies, rb, AllToAll}, np, q, l)     // search+box; bodies; branches+bounds; push
		if again := ExpectedWall([]Collective{rb, bodies, rb, AllToAll}, np, q, l); again != four {
			t.Errorf("%s: same arguments, %v then %v", tc.name, four, again)
		}
		if four >= five {
			t.Errorf("%s: four collectives modelled at %v, five at %v", tc.name, four, five)
		}
		t.Logf("body exchange over %s: five collectives (%d messages) %v, four (%d messages) %v: predicted saving %v",
			tc.name, 30+len(tc.pairs), five, 24+len(tc.pairs), four, five-four)
	}
}
