// Package direct implements the O(N^2) solution of the N-body problem
// the paper benchmarks against the treecode: "simply a double loop,
// very easy to parallelize using a ring decomposition". It exists (as
// in the paper) to calibrate raw machine speed and to make the
// algorithmic comparison concrete — the paper's 1-million-body run on
// 6800 processors sustained 635 Gflops and was still ~10^5 times less
// efficient than the treecode.
//
// Each of its two jobs has one implementation. Ring, the benchmark,
// runs the treecode's production kernels (grav.EvalPP/EvalSelf), so
// its rate and the treecode's compare the same arithmetic. Serial, the
// reference, is the exact float64 sum over grav.AccelAt.
package direct

import (
	"cmp"
	"slices"

	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/vec"
)

// Serial computes exact softened forces on all bodies by direct
// summation in float64: grav.AccelAt over every other body. acc and pot
// are overwritten.
func Serial(pos []vec.V3, mass []float64, acc []vec.V3, pot []float64, eps2 float64) diag.Counters {
	for i, x := range pos {
		a, p := grav.AccelAt(x, pos[:i], mass[:i], eps2)
		b, q := grav.AccelAt(x, pos[i+1:], mass[i+1:], eps2)
		acc[i], pot[i] = a.Add(b), p+q
	}
	var ctr diag.Counters
	if n := uint64(len(pos)); n > 0 {
		ctr.PP = n * (n - 1)
	}
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

// tile is how many of the rank's bodies one kernel call evaluates: the
// treecode's largest walk group (a sink cell of at most 64 bodies).
const tile = 64

// Ring computes forces on this rank's bodies with the ring
// decomposition: every rank's block of bodies visits every other rank
// once, so computation scales as (N/P)*N while communication scales
// as N per rank. acc and pot are overwritten.
//
// The rank's bodies are evaluated in tiles of 64 consecutive, each in
// its own frame, the tile's box centre: bodies in key order (RingRun
// hands each rank a piece of the Morton curve) make a tile compact, as
// a walk group is, so its float32 coordinates keep the digits a tile
// spanning the box would lose. A visiting block is the tile's source
// list (grav.EvalPP); in round 0 the rest of the rank's own bodies
// are, and the tile against itself is grav.EvalSelf.
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

	var tg grav.Targets
	var l grav.InteractionList
	cur := block{pos: pos, mass: mass}
	for round := 0; round < p; round++ {
		// Forward the block first so communication overlaps the
		// compute of this round (the paper's pipeline), except on the
		// last round where nothing more is needed.
		if round < p-1 {
			c.Send(next, ringTag, cur, blockBytes*len(cur.pos))
		}
		for lo := 0; lo < len(pos); lo += tile {
			hi := min(lo+tile, len(pos))
			b := keys.BoxOf(pos[lo:hi])
			l.Reset(b.Lo.Add(b.Hi).Scale(0.5))
			if round == 0 {
				tg.Load(pos[lo:hi], mass[lo:hi])
				l.AddBodies(pos[:lo], mass[:lo])
				l.AddBodies(pos[hi:], mass[hi:])
				ctr.PP += grav.EvalSelf(&tg, eps2)
			} else {
				tg.Load(pos[lo:hi], nil)
				l.AddBodies(cur.pos, cur.mass)
			}
			ctr.PP += grav.EvalPP(&tg, &l, eps2)
			for k := range hi - lo {
				acc[lo+k] = acc[lo+k].Add(vec.V3{X: tg.AX[k], Y: tg.AY[k], Z: tg.AZ[k]})
				pot[lo+k] += tg.Pot[k]
			}
		}
		if round < p-1 {
			m := c.Recv(prev, ringTag)
			cur = m.Data.(block)
		}
	}
	return ctr
}

// keyOrder returns the bodies sorted by key in the domain of their box.
func keyOrder(pos []vec.V3, mass []float64) block {
	d := keys.NewDomain(pos)
	k := make([]keys.Key, len(pos))
	ord := make([]int, len(pos))
	for i, p := range pos {
		k[i], ord[i] = d.KeyOf(p), i
	}
	slices.SortFunc(ord, func(a, b int) int { return cmp.Compare(k[a], k[b]) })
	b := block{pos: make([]vec.V3, len(pos)), mass: make([]float64, len(pos))}
	for j, i := range ord {
		b.pos[j], b.mass[j] = pos[i], mass[i]
	}
	return b
}

// RingRun is the paper's O(N^2) benchmark: steps evaluations of Ring on
// a world of procs ranks. The bodies are sorted by key once, over the
// whole input, and rank r holds the contiguous block [r*n/procs,
// (r+1)*n/procs) of that order, a compact piece of the curve; they do
// not move between evaluations. It returns the body-body interactions
// summed over ranks and steps, n(n-1) per step.
func RingRun(procs, steps int, pos []vec.V3, mass []float64, eps2 float64) uint64 {
	n := len(pos)
	b := keyOrder(pos, mass)
	counts := make([]uint64, procs)
	msg.Run(procs, func(c *msg.Comm) {
		lo, hi := c.Rank()*n/procs, (c.Rank()+1)*n/procs
		acc := make([]vec.V3, hi-lo)
		pot := make([]float64, hi-lo)
		for s := 0; s < steps; s++ {
			counts[c.Rank()] += Ring(c, b.pos[lo:hi], b.mass[lo:hi], acc, pot, eps2).PP
		}
	})
	var pp uint64
	for _, v := range counts {
		pp += v
	}
	return pp
}
