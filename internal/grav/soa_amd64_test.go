package grav

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// listCase draws nc cell moments and runs of 1...16 bodies, nb bodies
// in all, around the unit cube, and an earlier batch of 0...9 rows for
// the lists to start from, so that the new rows start anywhere.
func listCase(rng *rand.Rand, nc, nb int) (cells []Multipole, runs []Run, pre int) {
	cells = make([]Multipole, nc)
	for i := range cells {
		cells[i] = Multipole{
			M:   rng.Float64(),
			COM: vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
			Q: vec.Sym3{XX: rng.NormFloat64(), YY: rng.NormFloat64(), ZZ: rng.NormFloat64(),
				XY: rng.NormFloat64(), XZ: rng.NormFloat64(), YZ: rng.NormFloat64()},
			B2: rng.Float64(), Bmax: rng.Float64(),
		}
	}
	for nb > 0 {
		n := min(nb, 1+rng.Intn(16))
		pos, mass := randBodies(rng, n)
		runs = append(runs, Run{Pos: pos, Mass: mass[:n:n]})
		nb -= n
	}
	return cells, runs, rng.Intn(10)
}

// buildLists builds the list of cells and runs from origin o on top of
// pre rows of an earlier batch, once through the dispatched AddCells
// and AddRuns and once through the Go loops that define them.
func buildLists(cells []Multipole, runs []Run, pre int, o vec.V3) (got, want *InteractionList) {
	ptrs := make([]*Multipole, len(cells))
	for i := range cells {
		ptrs[i] = &cells[i]
	}
	got, want = &InteractionList{}, &InteractionList{}
	earlier := make([]*Multipole, pre)
	for i := range earlier {
		earlier[i] = &Multipole{M: float64(i)}
	}
	for _, l := range []*InteractionList{got, want} {
		l.Reset(vec.V3{X: 1})
		pos, mass := randBodies(rand.New(rand.NewSource(1)), pre)
		l.AddRuns([]Run{{Pos: pos, Mass: mass}})
		l.AddCells(earlier)
		l.Origin = o
	}
	cols := listColumns(got)
	for c := range cols { // spare capacity the batch must not write
		n := len(cols[c])
		cols[c] = append(cols[c], make([]float32, len(cells)+len(runs)*16+16)...)
		cols[c] = cols[c][:cap(cols[c])]
		for i := n; i < len(cols[c]); i++ {
			cols[c][i] = spare
		}
		cols[c] = cols[c][:n]
	}
	got.SX, got.SY, got.SZ, got.SM = cols[0], cols[1], cols[2], cols[3]
	got.CM, got.CX, got.CY, got.CZ = cols[4], cols[5], cols[6], cols[7]
	got.QXX, got.QYY, got.QZZ, got.QXY, got.QXZ, got.QYZ = cols[8], cols[9], cols[10], cols[11], cols[12], cols[13]
	got.AddCells(ptrs)
	got.AddRuns(runs)
	at := len(want.CM)
	for _, col := range [...]*[]float32{&want.CM, &want.CX, &want.CY, &want.CZ, &want.QXX, &want.QYY, &want.QZZ, &want.QXY, &want.QXZ, &want.QYZ} {
		*col = append(*col, make([]float32, len(cells))...)
	}
	addCellsGo(want, ptrs, at)
	at, n := len(want.SM), 0
	for _, r := range runs {
		n += len(r.Pos)
	}
	for _, col := range [...]*[]float32{&want.SX, &want.SY, &want.SZ, &want.SM} {
		*col = append(*col, make([]float32, n)...)
	}
	addRunsGo(want, runs, at)
	return got, want
}

// spare fills the columns' capacity past the rows a batch adds.
var spare = math.Float32frombits(0x7fc0dead)

// sameLists fails t unless the two lists' columns are equal bit for bit
// and got's capacity past them still holds spare.
func sameLists(t *testing.T, got, want *InteractionList) {
	t.Helper()
	g, w := listColumns(got), listColumns(want)
	for c := range g {
		if len(g[c]) != len(w[c]) {
			t.Fatalf("column %d: %d rows, Go %d", c, len(g[c]), len(w[c]))
		}
		for i, v := range g[c][len(g[c]):cap(g[c])] {
			if math.Float32bits(v) != math.Float32bits(spare) {
				t.Fatalf("column %d: row %d past the batch's end written", c, len(g[c])+i)
			}
		}
		for i := range g[c] {
			if a, b := math.Float32bits(g[c][i]), math.Float32bits(w[c][i]); a != b {
				t.Fatalf("column %d row %d: lanes %#08x (%g), Go %#08x (%g)", c, i, a, g[c][i], b, w[c][i])
			}
		}
	}
}

// moment is field f of mp in the order the slab columns name them (M,
// COM, Q), B2 and Bmax after them.
func moment(mp *Multipole, f int) *float64 {
	return [...]*float64{&mp.M, &mp.COM.X, &mp.COM.Y, &mp.COM.Z, &mp.Q.XX, &mp.Q.YY, &mp.Q.ZZ,
		&mp.Q.XY, &mp.Q.XZ, &mp.Q.YZ, &mp.B2, &mp.Bmax}[f]
}

// FuzzListLanes: nc cells (0...300) and nb bodies (0...300) in runs of
// 1...16 from a seeded generator, every tail of 1...7 cells and bodies,
// the origin anywhere (far from the data too), and two float64 bit
// patterns written into one moment of one cell and of the last cell,
// and into one coordinate or mass of one body and of the last. The list
// built by AddCells and AddRuns (the lane routines where AVX-512 is
// usable) must equal the one the Go loops build, bit for bit. The seeds
// put NaN, Inf, subnormal and -0 patterns in every field.
func FuzzListLanes(f *testing.F) {
	if !haveAVX512 {
		f.Skip("no AVX-512: the Go loops are the only list build on this host")
	}
	patterns := []uint64{
		0x7ff8000000000001, // quiet NaN with a payload
		0x7ff0000000000001, // signalling NaN
		0xfff0000000000000, // -Inf
		0x7ff0000000000000, // +Inf
		0x0000000000000001, // the least subnormal
		0x3690000000000001, // rounds to a float32 subnormal
		0x8000000000000000, // -0
		0x47f0000000000000, // overflows float32
	}
	for i, p := range patterns {
		for field := 0; field < 14; field++ {
			f.Add(uint16(i*37+field), uint16(300-i*29-field), int64(i), float64(field), -0.5, 1e9*float64(i%2),
				uint8(field), uint16(i), p, patterns[(i+field)%len(patterns)])
		}
	}
	f.Add(uint16(8), uint16(8), int64(1), 0.0, 0.0, 0.0, uint8(0), uint16(0), uint64(0), uint64(0))
	f.Add(uint16(7), uint16(1), int64(2), 1e300, -1e300, 3.0, uint8(1), uint16(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, ncb, nbb uint16, seed int64, ox, oy, oz float64, field uint8, at uint16, bits, last uint64) {
		rng := rand.New(rand.NewSource(seed))
		cells, runs, pre := listCase(rng, int(ncb)%301, int(nbb)%301)
		if k := int(field) % 14; k < 10 {
			if n := len(cells); n > 0 {
				*moment(&cells[int(at)%n], k) = math.Float64frombits(bits)
				*moment(&cells[n-1], k) = math.Float64frombits(last)
			}
		} else if n := len(runs); n > 0 {
			body := func(r Run, i int) *float64 {
				return [...]*float64{&r.Pos[i].X, &r.Pos[i].Y, &r.Pos[i].Z, &r.Mass[i]}[k-10]
			}
			r := runs[int(at)%n]
			*body(r, int(at)%len(r.Pos)) = math.Float64frombits(bits)
			r = runs[n-1]
			*body(r, len(r.Pos)-1) = math.Float64frombits(last)
		}
		got, want := buildLists(cells, runs, pre, vec.V3{X: ox, Y: oy, Z: oz})
		sameLists(t, got, want)
	})
}

// TestListLanesMatchGo holds the lane routines to the Go loops on every
// length from 0 to 300 cells and bodies, origins near and far.
func TestListLanesMatchGo(t *testing.T) {
	if !haveAVX512 {
		t.Skip("no AVX-512: the Go loops are the only list build on this host")
	}
	rng := rand.New(rand.NewSource(51))
	for n := 0; n <= 300; n++ {
		cells, runs, pre := listCase(rng, n, n)
		o := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		if n%2 == 1 {
			o = o.Scale(1e7)
		}
		got, want := buildLists(cells, runs, pre, o)
		sameLists(t, got, want)
	}
}
