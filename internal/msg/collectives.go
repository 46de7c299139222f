package msg

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

// Alltoall sends the single value send[d] to rank d and returns what
// every rank sent here, indexed by source, reusing recv when its
// capacity allows. Each T is copied into its message, so the sender may
// overwrite send as soon as the call returns (whatever a T points to
// is still shared, as in Alltoallv). bytesOf gives the logical wire
// size of one value.
func Alltoall[T any](c *Comm, send, recv []T, bytesOf func(T) int) []T {
	if len(send) != c.Size() {
		panic("msg: Alltoall needs one send value per rank")
	}
	tag := c.nextTag(opAlltoall)
	for d := 0; d < c.Size(); d++ {
		if d != c.Rank() {
			c.send(d, tag, send[d], bytesOf(send[d]))
		}
	}
	if cap(recv) < c.Size() {
		recv = make([]T, c.Size())
	}
	recv = recv[:c.Size()]
	for s := 0; s < c.Size(); s++ {
		if s == c.Rank() {
			recv[s] = send[s]
		} else {
			recv[s] = c.Recv(s, tag).Data.(T)
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
	return Alltoall(c, send, recv, func(b []T) int { return bytesPer * len(b) })
}

// AlltoallvFunc is AlltoallvInto that additionally invokes
// onBatch(src, batch) as each source's batch lands (the local batch
// at its own position in source order), so the caller can process
// early arrivals while later sources are still in flight -- the
// incremental-delivery hook the tree walk imports cells through.
// onBatch runs on the calling goroutine and must not communicate.
func AlltoallvFunc[T any](c *Comm, send, recv [][]T, bytesPer int, onBatch func(src int, batch []T)) [][]T {
	if len(send) != c.Size() {
		panic("msg: Alltoallv needs one send slice per rank")
	}
	tag := c.nextTag(opAlltoall)
	for d := 0; d < c.Size(); d++ {
		if d != c.Rank() {
			c.send(d, tag, send[d], bytesPer*len(send[d]))
		}
	}
	if cap(recv) < c.Size() {
		recv = make([][]T, c.Size())
	}
	recv = recv[:c.Size()]
	for s := 0; s < c.Size(); s++ {
		if s == c.Rank() {
			recv[s] = send[s]
		} else {
			recv[s] = c.Recv(s, tag).Data.([]T)
		}
		onBatch(s, recv[s])
	}
	return recv
}

// Common reduction operators.
func SumF64(a, b float64) float64 { return a + b }
func SumI64(a, b int64) int64     { return a + b }
func SumU64(a, b uint64) uint64   { return a + b }
func MaxF64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
func MinF64(a, b float64) float64 {
	if a < b {
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
func SumI(a, b int) int { return a + b }
