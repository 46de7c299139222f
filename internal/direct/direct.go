// Package direct implements the O(N^2) solution of the N-body problem
// the paper benchmarks against the treecode: "simply a double loop,
// very easy to parallelize using a ring decomposition". It exists (as
// in the paper) to calibrate raw machine speed and to make the
// algorithmic comparison concrete — the paper's 1-million-body run on
// 6800 processors sustained 635 Gflops and was still ~10^5 times less
// efficient than the treecode.
package direct

import (
	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/msg"
	"repro/internal/vec"
)

// Serial computes forces on all bodies by direct summation.
func Serial(pos []vec.V3, mass []float64, acc []vec.V3, pot []float64, eps2 float64) diag.Counters {
	for i := range acc {
		acc[i] = vec.V3{}
		pot[i] = 0
	}
	var ctr diag.Counters
	ctr.PP = grav.PPSelf(pos, mass, acc, pot, eps2)
	return ctr
}

// block is the unit circulated around the ring.
type block struct {
	pos  []vec.V3
	mass []float64
}

// blockBytes is the logical wire size per body in the ring pipeline:
// the paper's 32 bytes (position + mass).
const blockBytes = 32

const ringTag = 11

// Ring computes forces on this rank's bodies with the ring
// decomposition: every rank's block of bodies visits every other rank
// once, so computation scales as (N/P)*N while communication scales
// as N per rank. acc and pot are overwritten.
func Ring(c *msg.Comm, pos []vec.V3, mass []float64, acc []vec.V3, pot []float64, eps2 float64) diag.Counters {
	c.Phase("nsquared")
	for i := range acc {
		acc[i] = vec.V3{}
		pot[i] = 0
	}
	var ctr diag.Counters
	p := c.Size()
	next := (c.Rank() + 1) % p
	prev := (c.Rank() - 1 + p) % p

	cur := block{pos: pos, mass: mass}
	for round := 0; round < p; round++ {
		// Forward the block first so communication overlaps the
		// compute of this round (the paper's pipeline), except on the
		// last round where nothing more is needed.
		if round < p-1 {
			c.Send(next, ringTag, cur, blockBytes*len(cur.pos))
		}
		if round == 0 {
			ctr.PP += grav.PPSelf(cur.pos, cur.mass, acc, pot, eps2)
		} else {
			ctr.PP += grav.PPTile(pos, acc, pot, cur.pos, cur.mass, eps2)
		}
		if round < p-1 {
			m := c.Recv(prev, ringTag)
			cur = m.Data.(block)
		}
	}
	return ctr
}

// RingRun is the paper's O(N^2) benchmark: steps evaluations of Ring on
// a world of procs ranks, rank r holding the contiguous block
// [r*n/procs, (r+1)*n/procs) of the bodies, which do not move between
// evaluations. It returns the body-body interactions summed over ranks
// and steps, n(n-1) per step.
func RingRun(procs, steps int, pos []vec.V3, mass []float64, eps2 float64) uint64 {
	n := len(pos)
	counts := make([]uint64, procs)
	msg.Run(procs, func(c *msg.Comm) {
		lo, hi := c.Rank()*n/procs, (c.Rank()+1)*n/procs
		acc := make([]vec.V3, hi-lo)
		pot := make([]float64, hi-lo)
		for s := 0; s < steps; s++ {
			counts[c.Rank()] += Ring(c, pos[lo:hi], mass[lo:hi], acc, pot, eps2).PP
		}
	})
	var pp uint64
	for _, v := range counts {
		pp += v
	}
	return pp
}
