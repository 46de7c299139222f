package msg

import "fmt"

// Collectives are free generic functions (Go methods cannot be
// generic). All ranks must call the same collectives in the same
// order; reduction operators are applied in rank order so results are
// deterministic regardless of scheduling.

// Bcast distributes root's value to every rank via a binomial tree
// (log2 P message rounds, as a real MPI would). The payload size that
// is accounted on every hop is root's: only root need know it.
func Bcast[T any](c *Comm, root int, x T, bytes int) T {
	tag := c.nextTag(opBcast)
	p := c.Size()
	// Work in a coordinate system where root is rank 0.
	vr := (c.Rank() - root + p) % p
	if vr != 0 {
		// Receive from the parent in the binomial tree: clear the
		// lowest set bit of the virtual rank.
		parent := (vr&(vr-1) + root) % p
		m := c.Recv(parent, tag)
		x, bytes = m.Data.(T), m.Bytes
	}
	// Forward to children: set each bit above the lowest set bit
	// while the result stays < p.
	low := vr & (-vr)
	if vr == 0 {
		low = 1 << 30
	}
	for bit := 1; bit < low && vr+bit < p; bit <<= 1 {
		c.send((vr+bit+root)%p, tag, x, bytes)
	}
	return x
}

// Reduce combines every rank's x with op (applied in rank order) and
// returns the result on root; other ranks receive the zero value.
func Reduce[T any](c *Comm, root int, x T, op func(a, b T) T, bytes int) T {
	tag := c.nextTag(opReduce)
	if c.Rank() != root {
		c.send(root, tag, x, bytes)
		var zero T
		return zero
	}
	// Apply in rank order for determinism.
	var acc T
	first := true
	for r := 0; r < c.Size(); r++ {
		var v T
		if r == root {
			v = x
		} else {
			v = c.Recv(r, tag).Data.(T)
		}
		if first {
			acc = v
			first = false
		} else {
			acc = op(acc, v)
		}
	}
	return acc
}

// Allreduce is Reduce followed by Bcast: two tags, one collective.
func Allreduce[T any](c *Comm, x T, op func(a, b T) T, bytes int) T {
	v := Reduce(c, 0, x, op, bytes)
	c.collectives-- // the broadcast leg is the same collective
	return Bcast(c, 0, v, bytes)
}

// Gather collects every rank's value at root, indexed by rank; other
// ranks receive nil.
func Gather[T any](c *Comm, root int, x T, bytes int) []T {
	out, _ := gather(c, root, x, bytes)
	return out
}

// gather is Gather that also returns, on root, the summed payload size
// of all contributions (each rank passes its own bytes).
func gather[T any](c *Comm, root int, x T, bytes int) (out []T, total int) {
	tag := c.nextTag(opGather)
	if c.Rank() != root {
		c.send(root, tag, x, bytes)
		return nil, 0
	}
	out = make([]T, c.Size())
	for r := 0; r < c.Size(); r++ {
		if r == root {
			out[r] = x
			total += bytes
		} else {
			m := c.Recv(r, tag)
			out[r] = m.Data.(T)
			total += m.Bytes
		}
	}
	return out, total
}

// Allgather collects every rank's value on all ranks. Contributions
// may differ in size: the broadcast leg is accounted at the gathered
// total, which root learns from the arriving messages.
func Allgather[T any](c *Comm, x T, bytes int) []T {
	v, total := gather(c, 0, x, bytes)
	c.collectives-- // the broadcast leg is the same collective
	return Bcast(c, 0, v, total)
}

// Pairs is the plan of a sparse exchange: Pairs(src, dst) reports
// whether rank src sends rank dst a message. The sender asks it for its
// destinations and the receiver for its sources, so it must give every
// rank the same answer -- a function of data every rank holds, such as
// the result of an earlier collective; nothing checks that, and a pair
// the two ends disagree on is a lost message or a receive that never
// returns. nil is every pair: the dense all-to-all.
type Pairs func(src, dst int) bool

// UnplannedError is the abort cause of a sparse exchange in which a rank
// held items for a peer its plan does not send to: they would have been
// lost, so the world stops instead.
type UnplannedError struct {
	Src, Dst, Items int
}

func (e *UnplannedError) Error() string {
	return fmt.Sprintf("msg: rank %d holds %d items for rank %d, which its exchange plan does not send to", e.Src, e.Items, e.Dst)
}

// exchange is the one all-to-all of this package, sparse in general:
// this rank sends send[d] to every other rank d that pairs plans and
// receives from every source that pairs plans to send here, into recv
// (reused when its capacity allows) indexed by source; an unplanned
// source's slot is T's zero value and its own slot is send[own]. Each
// slot is handed to onRecv, if there is one, as it lands. Every rank
// enters it, planned or not, so the tags of later collectives stay in
// step.
func exchange[T any](c *Comm, send, recv []T, bytesOf func(T) int, pairs Pairs, onRecv func(src int, x T)) []T {
	p, me := c.Size(), c.Rank()
	if len(send) != p {
		panic("msg: an all-to-all needs one send value per rank")
	}
	tag := c.nextTag(opAlltoall)
	for d := range send {
		if d != me && (pairs == nil || pairs(me, d)) {
			c.send(d, tag, send[d], bytesOf(send[d]))
		}
	}
	if cap(recv) < p {
		recv = make([]T, p)
	}
	recv = recv[:p]
	for s := range recv {
		switch {
		case s == me:
			recv[s] = send[s]
		case pairs == nil || pairs(s, me):
			recv[s] = c.Recv(s, tag).Data.(T)
		default:
			var zero T
			recv[s] = zero
		}
		if onRecv != nil {
			onRecv(s, recv[s])
		}
	}
	return recv
}

// Alltoallv sends send[d] to rank d and returns what every rank sent
// here, indexed by source. bytesPer is the logical wire size of one T.
// The received slices alias the senders' slices (in-process handoff);
// receivers treat them as read-only.
func Alltoallv[T any](c *Comm, send [][]T, bytesPer int) [][]T {
	return AlltoallvInto(c, send, nil, bytesPer)
}

// AlltoallvInto is Alltoallv reusing recv as the result's outer slice
// when its capacity allows (every element is overwritten), so
// steady-state exchanges -- the ABM round loop -- allocate nothing.
// Pass nil to allocate fresh.
func AlltoallvInto[T any](c *Comm, send, recv [][]T, bytesPer int) [][]T {
	return exchange(c, send, recv, func(b []T) int { return bytesPer * len(b) }, nil, nil)
}

// AlltoallvFunc is AlltoallvInto over the pairs the plan names (nil:
// all of them), with bytesOf the logical wire size of each item (a
// leaf's record carries its bodies), invoking onBatch(src, batch), when
// it is not nil, as each source's batch lands (the local batch at its
// own position in source order, an unplanned source's as nil), so the
// caller can process early arrivals while later sources are still in
// flight -- the incremental-delivery hook the tree walk imports cells
// through. onBatch runs on the calling goroutine and must not
// communicate. A non-empty batch for a destination the plan does not
// send to aborts the world with an *UnplannedError before anything is
// sent.
func AlltoallvFunc[T any](c *Comm, send, recv [][]T, bytesOf func(*T) int, pairs Pairs, onBatch func(src int, batch []T)) [][]T {
	if pairs != nil {
		for d, b := range send {
			if d != c.Rank() && len(b) > 0 && !pairs(c.Rank(), d) {
				c.Abort(&UnplannedError{Src: c.Rank(), Dst: d, Items: len(b)})
			}
		}
	}
	return exchange(c, send, recv, func(b []T) int {
		n := 0
		for i := range b {
			n += bytesOf(&b[i])
		}
		return n
	}, pairs, onBatch)
}

// Common reduction operators.
func SumF64(a, b float64) float64 { return a + b }
func SumU64(a, b uint64) uint64   { return a + b }
func MaxF64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
func MaxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
