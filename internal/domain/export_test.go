package domain

import (
	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/tree"
)

// decomposeDense is Decompose with the body exchange over every pair of
// ranks whatever the search found, as it ran before the windows planned
// it, and through the exchange on one rank too, as it ran before keep:
// the reference the planned exchange and keep are tested against.
func (dc *Decomposer) decomposeDense(c *msg.Comm, sys *core.System, d keys.Domain) Result {
	dc.dom, dc.check = d, false
	return dc.exchange(c, sys, dc.search(c, sys), nil)
}

// bisectSplits is the splitter search this package ran before the
// sample selection: a bisection on the 63-bit key-offset space, one
// allreduce of the P-1 probes per bit. Kept as the reference
// selectSplits is tested against: same prefix sums, same target
// predicate, same fixed point.
func bisectSplits(c *msg.Comm, ks []keys.Key, pw []uint64, p int) []uint64 {
	total := msg.Allreduce(c, pw[len(ks)], msg.SumU64, 8)
	lo := make([]uint64, p-1)
	hi := make([]uint64, p-1)
	tgt := make([]float64, p-1)
	for s := range lo {
		hi[s] = tree.EndOffset
		tgt[s] = float64(total) * float64(s+1) / float64(p)
	}
	sumVec := func(a, b []uint64) []uint64 {
		out := make([]uint64, len(a))
		for i := range a {
			out[i] = a[i] + b[i]
		}
		return out
	}
	for round := 0; round < 64; round++ {
		done := true
		probes := make([]uint64, p-1)
		for s := range lo {
			if hi[s]-lo[s] > 1 {
				done = false
			}
			probes[s] = pw[searchOffset(ks, (lo[s]+hi[s])/2)]
		}
		if done {
			break
		}
		sums := msg.Allreduce(c, probes, sumVec, 8*(p-1))
		for s := range lo {
			mid := (lo[s] + hi[s]) / 2
			if float64(sums[s]) >= tgt[s] {
				hi[s] = mid
			} else {
				lo[s] = mid
			}
		}
	}
	splits := make([]uint64, p+1)
	splits[p] = tree.EndOffset
	copy(splits[1:], hi)
	return splits
}
