// Batched, structure-of-arrays force evaluation: the "build an
// interaction list, then evaluate it in one dense sweep" split that
// the GRAPE-coupled treecodes use. A tree walk appends every accepted
// interaction into an InteractionList (flat SoA buffers), and the
// Eval* kernels then apply the whole list to a Targets block without
// touching the tree, the hash table, or any AoS accumulator in the
// inner loop.
//
// The kernels that evaluate a list are in kernel.go.
package grav

import (
	"slices"

	"repro/internal/vec"
)

// InteractionList is the flat interaction list one group accumulates
// during a tree walk: body sources as SoA position/mass columns, and
// accepted cell multipoles as an SoA slab (only the ten moments the
// kernels read; B2/Bmax are MAC-time data and stay out of the hot
// columns). The columns are float32, the kernels' precision, and every
// coordinate in them is relative to Origin: differenced in float64,
// then rounded (kernel.go's first rule). The group's own cell is not
// copied into the source columns; Self records that the walk reached
// it, and EvalSelf evaluates it directly from the Targets block, all
// the group's bodies against each other (keeping the self-pair skip,
// and hence the PP count, exact).
//
// All storage is reused across Reset calls, so a long-lived list
// allocates only until its buffers reach the high-water mark.
type InteractionList struct {
	// Origin is the frame the coordinates are relative to: the group's
	// box centre (tree.Walker.Begin).
	Origin vec.V3
	// SX, SY, SZ, SM are the source bodies' coordinates and masses.
	SX, SY, SZ, SM []float32
	// CM, CX, CY, CZ are the accepted cells' masses and centers of
	// mass; QXX..QYZ their traceless quadrupoles.
	CM, CX, CY, CZ               []float32
	QXX, QYY, QZZ, QXY, QXZ, QYZ []float32
	// Self records that the group's own bodies interact with each other.
	Self bool
}

// Reset empties the list and sets its origin, keeping capacity.
func (l *InteractionList) Reset(origin vec.V3) {
	l.Origin = origin
	l.SX, l.SY, l.SZ, l.SM = l.SX[:0], l.SY[:0], l.SZ[:0], l.SM[:0]
	l.CM, l.CX, l.CY, l.CZ = l.CM[:0], l.CX[:0], l.CY[:0], l.CZ[:0]
	l.QXX, l.QYY, l.QZZ = l.QXX[:0], l.QYY[:0], l.QZZ[:0]
	l.QXY, l.QXZ, l.QYZ = l.QXY[:0], l.QXZ[:0], l.QYZ[:0]
	l.Self = false
}

// Run is the bodies of one opened leaf as a list takes them: their
// positions, and masses in Mass[:len(Pos)].
type Run struct {
	Pos  []vec.V3
	Mass []float64
}

// AddRuns appends the bodies of runs to the source columns, in order:
// the columns grow once for the batch, and addRuns converts every run,
// eight bodies at a time where AVX-512 is usable, as addRunsGo does.
func (l *InteractionList) AddRuns(runs []Run) {
	n := 0
	for i := range runs {
		_ = runs[i].Mass[:len(runs[i].Pos)] // a short Mass panics before anything is written
		n += len(runs[i].Pos)
	}
	at := len(l.SM)
	for _, col := range [...]*[]float32{&l.SX, &l.SY, &l.SZ, &l.SM} {
		*col = slices.Grow(*col, n)[:at+n]
	}
	addRuns(l, runs, at)
}

// AddCells appends the moments of cells to the slab, in order: the
// columns grow once for the batch, and addCells gathers the cells,
// eight at a time where AVX-512 is usable, as addCellsGo does.
func (l *InteractionList) AddCells(cells []*Multipole) {
	n := len(cells)
	at := len(l.CM)
	for _, col := range [...]*[]float32{&l.CM, &l.CX, &l.CY, &l.CZ, &l.QXX, &l.QYY, &l.QZZ, &l.QXY, &l.QXZ, &l.QYZ} {
		*col = slices.Grow(*col, n)[:at+n]
	}
	addCells(l, cells, at)
}

// NSources returns the number of body sources in the list.
func (l *InteractionList) NSources() int { return len(l.SM) }

// NCells returns the number of cell multipoles in the list.
func (l *InteractionList) NCells() int { return len(l.CM) }

// Source returns body source i as the kernels see it, back in the
// global frame. For tests and replay tools.
func (l *InteractionList) Source(i int) (pos vec.V3, mass float64) {
	o := l.Origin
	return vec.V3{X: o.X + float64(l.SX[i]), Y: o.Y + float64(l.SY[i]), Z: o.Z + float64(l.SZ[i])}, float64(l.SM[i])
}

// Cell reconstructs slab entry i as a Multipole as the kernels see it,
// back in the global frame (B2/Bmax, which the slab does not carry, are
// zero). For tests and replay tools.
func (l *InteractionList) Cell(i int) Multipole {
	o := l.Origin
	return Multipole{
		M:   float64(l.CM[i]),
		COM: vec.V3{X: o.X + float64(l.CX[i]), Y: o.Y + float64(l.CY[i]), Z: o.Z + float64(l.CZ[i])},
		Q: vec.Sym3{
			XX: float64(l.QXX[i]), YY: float64(l.QYY[i]), ZZ: float64(l.QZZ[i]),
			XY: float64(l.QXY[i]), XZ: float64(l.QXZ[i]), YZ: float64(l.QYZ[i]),
		},
	}
}

// Targets is the reusable SoA block for one group of targets:
// gathered positions and masses, and the acceleration/potential
// accumulators the batched kernels add to. Load/Store convert to and
// from the AoS representation the rest of the code uses; between them
// the kernels never touch []vec.V3.
type Targets struct {
	X, Y, Z, M      []float64
	AX, AY, AZ, Pot []float64
}

// growF returns s resized to n, reusing capacity.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Load gathers a group into the SoA block and zeroes the
// accumulators. mass may be nil when no self-interaction will be
// evaluated.
func (t *Targets) Load(pos []vec.V3, mass []float64) {
	n := len(pos)
	t.X, t.Y, t.Z = growF(t.X, n), growF(t.Y, n), growF(t.Z, n)
	t.AX, t.AY, t.AZ, t.Pot = growF(t.AX, n), growF(t.AY, n), growF(t.AZ, n), growF(t.Pot, n)
	for i := range pos {
		t.X[i], t.Y[i], t.Z[i] = pos[i].X, pos[i].Y, pos[i].Z
		t.AX[i], t.AY[i], t.AZ[i], t.Pot[i] = 0, 0, 0, 0
	}
	if mass != nil {
		t.M = growF(t.M, n)
		copy(t.M, mass)
	} else {
		t.M = t.M[:0]
	}
}

// Store scatters the accumulators back, overwriting acc and pot.
func (t *Targets) Store(acc []vec.V3, pot []float64) {
	for i := range acc {
		acc[i] = vec.V3{X: t.AX[i], Y: t.AY[i], Z: t.AZ[i]}
		pot[i] = t.Pot[i]
	}
}
