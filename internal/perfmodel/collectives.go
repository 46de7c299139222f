package perfmodel

import (
	"fmt"
	"time"
)

// Collective is the message pattern of one collective of internal/msg.
type Collective struct {
	kind pattern
	// pairs lists the (sender, receiver) pairs of a sparse all-to-all.
	pairs [][2]int
}

type pattern int

const (
	reduceBcast pattern = iota
	allToAll
	sparseAllToAll
)

var (
	// ReduceBcast is an Allreduce or an Allgather: every rank sends to
	// rank 0, which waits for all of them, then a binomial-tree
	// broadcast. 2(np-1) messages.
	ReduceBcast = Collective{kind: reduceBcast}
	// AllToAll is an Alltoall(v): every rank sends to every other and
	// waits for what the others sent it. np(np-1) messages.
	AllToAll = Collective{kind: allToAll}
)

// SparseAllToAll is an all-to-all over the given (sender, receiver)
// pairs alone (msg.Pairs): a rank waits only for what the listed pairs
// send it. Every ordered pair of distinct ranks is AllToAll; none is a
// collective that costs nothing.
func SparseAllToAll(pairs ...[2]int) Collective {
	return Collective{kind: sparseAllToAll, pairs: pairs}
}

// latencyTrials is the sample size of ExpectedWall: the standard error
// is under 0.5% of the mean for a step of a few dozen messages and
// about 2% for a single two-message collective with one message in
// sixteen delayed.
const latencyTrials = 20000

// ExpectedWall predicts what a sequence of collectives costs a
// latency-bound step on the machine this repository can inject
// (msg.Injector): np ranks enter the list together, compute nothing in
// between, and every message is delayed, independently with
// probability prob, by a time uniform in (0, maxLatency]; an undelayed
// message is free. The result is the expected time until the last rank
// leaves the last collective. A rank waits only for the messages its
// own receives name, as in internal/msg, so a late message holds up the
// ranks downstream of it and nobody else: an all-to-all is not a
// barrier, and the expectation has no closed form beyond one
// collective. It is a mean over latencyTrials draws of a fixed
// pseudo-random sequence, hence a pure function of its arguments. A
// sparse all-to-all draws a delay for every pair, as the dense one
// does, and applies only those of the pairs that send, so in every
// trial it ends no later than the dense one: fewer messages never
// model slower. A pair that names a rank outside [0, np) or a rank
// sending to itself panics.
func ExpectedWall(ops []Collective, np int, prob float64, maxLatency time.Duration) time.Duration {
	// sends[i][s*np+r] says whether s sends to r in op i (nil: all do).
	sends := make([][]bool, len(ops))
	for i, op := range ops {
		if op.kind != sparseAllToAll {
			continue
		}
		sends[i] = make([]bool, np*np)
		for _, pr := range op.pairs {
			s, r := pr[0], pr[1]
			if s < 0 || s >= np || r < 0 || r >= np || s == r {
				panic(fmt.Sprintf("perfmodel: pair %d -> %d on %d ranks", s, r, np))
			}
			sends[i][s*np+r] = true
		}
	}
	rng := uint64(0x9e3779b97f4a7c15)
	delay := func() float64 { // splitmix64, two uniforms per message
		u := func() float64 {
			rng += 0x9e3779b97f4a7c15
			z := rng
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return float64((z^z>>31)>>11) / (1 << 53)
		}
		if u() >= prob {
			return 0
		}
		return (1 - u()) * float64(maxLatency)
	}
	t := make([]float64, np)    // when each rank is free
	sent := make([]float64, np) // when each rank entered an all-to-all
	var sum float64
	for trial := 0; trial < latencyTrials; trial++ {
		clear(t)
		for i, op := range ops {
			switch op.kind {
			case reduceBcast:
				for r := 1; r < np; r++ {
					t[0] = max(t[0], t[r]+delay())
				}
				// A rank's parent clears its lowest set bit, so parents
				// come before children in rank order.
				for r := 1; r < np; r++ {
					t[r] = max(t[r], t[r&(r-1)]+delay())
				}
			default:
				copy(sent, t)
				for r := range t {
					for s := range sent {
						if s == r {
							continue
						}
						if d := delay(); sends[i] == nil || sends[i][s*np+r] {
							t[r] = max(t[r], sent[s]+d)
						}
					}
				}
			}
		}
		last := 0.0
		for _, x := range t {
			last = max(last, x)
		}
		sum += last
	}
	return time.Duration(sum / latencyTrials)
}
