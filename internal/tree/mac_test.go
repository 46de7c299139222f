package tree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grav"
	"repro/internal/vec"
)

// TestCancellingMassesAreNotSkipped: a cell whose signed masses cancel
// to exactly zero still acts through its bodies, so only a cell of
// massless bodies is skipped. internal/bem's panel sources sum to about
// zero over a closed body, and to exactly zero often enough that a
// skipped root would drop whole evaluations of its solver.
func TestCancellingMassesAreNotSkipped(t *testing.T) {
	dipole := Cell{Mp: grav.FromBodies([]vec.V3{{X: 1}, {X: -1}}, []float64{1, -1})}
	if dipole.Mp.M != 0 {
		t.Fatalf("dipole mass %g, want 0", dipole.Mp.M)
	}
	if a := Classify(&dipole, vec.V3{X: 100}, 0); a == Skip {
		t.Fatal("a cell of cancelling masses was skipped")
	}
	massless := Cell{Mp: grav.FromBodies([]vec.V3{{X: 1}, {Y: 1}}, []float64{0, 0})}
	if a := Classify(&massless, vec.V3{X: 100}, 0); a != Skip {
		t.Fatalf("a cell of massless bodies: %v, want Skip", a)
	}
}

// classifyRoot is the acceptance test as it stood before it was
// squared: a distance, by square root, against RCrit from the sphere's
// near side.
func classifyRoot(c *Cell, gc vec.V3, gr float64) Action {
	if c.Mp.M == 0 && c.Mp.B2 == 0 {
		return Skip
	}
	d := c.Mp.COM.Sub(gc).Norm()
	if d-gr > c.RCrit && d > gr {
		return Accept
	}
	return Open
}

// randomPair draws a cell and a group sphere the way a traversal meets
// them: separations over six decades, radii from zero (a single body,
// a point-mass cell) to comparable with the separation, and one cell in
// 64 either empty or with an infinite critical radius. Every other pair
// has its critical radius moved onto the acceptance boundary, give or
// take a few parts in 1e16 to 1e3, where the two forms can differ.
func randomPair(rng *rand.Rand) (c Cell, gc vec.V3, gr float64) {
	point := func(scale float64) vec.V3 {
		return vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(scale)
	}
	sep := math.Pow(10, 3*rng.Float64()-3*rng.Float64())
	gc = point(1)
	c.Mp.COM = gc.Add(point(sep))
	c.Mp.M = 1
	gr = sep * rng.Float64() * float64(rng.Intn(3))
	c.RCrit = sep * 2 * rng.Float64() * float64(rng.Intn(4)) / 3
	switch rng.Intn(64) {
	case 0:
		c.Mp.M = 0
	case 1:
		c.RCrit = math.Inf(1)
	}
	if rng.Intn(2) == 0 && !math.IsInf(c.RCrit, 1) {
		d := c.Mp.COM.Sub(gc).Norm()
		if edge := d - gr; edge > 0 {
			c.RCrit = edge * (1 + rng.NormFloat64()*math.Pow(10, -3-13*rng.Float64()))
		}
	}
	return c, gc, gr
}

// TestSquaredMACMatchesRootForm holds Classify, which compares squares,
// to the d - gr > RCrit && d > gr it replaced, on 1.5 million random
// (cell, sphere) pairs: outside a band of a few ulps around d = RCrit +
// gr the two agree on every pair; inside it either answer is within
// rounding of the criterion. It fails too if the draw was vacuous: each
// verdict, the band and both sides next to it must all be populated.
func TestSquaredMACMatchesRootForm(t *testing.T) {
	const (
		pairs = 1_500_000
		band  = 8 * 0x1p-52 // relative half-width of the excluded band
	)
	rng := rand.New(rand.NewSource(21))
	var verdicts [3]int
	inBand, flipped, nearAccept, nearOpen := 0, 0, 0, 0
	for i := 0; i < pairs; i++ {
		c, gc, gr := randomPair(rng)
		got, want := Classify(&c, gc, gr), classifyRoot(&c, gc, gr)
		verdicts[got]++
		if c.Mp.M == 0 || math.IsInf(c.RCrit, 1) {
			if got != want {
				t.Fatalf("cell %+v sphere %v/%g: squared form %v, root form %v", c, gc, gr, got, want)
			}
			continue
		}
		d, s := c.Mp.COM.Sub(gc).Norm(), c.RCrit+gr
		switch off := (d - s) / math.Max(d, s); {
		case math.Abs(off) <= band:
			inBand++
			if got != want {
				flipped++
			}
			continue
		case off > 0 && off < 1e-9:
			nearAccept++
		case off < 0 && off > -1e-9:
			nearOpen++
		}
		if got != want {
			t.Fatalf("d = %.17g, RCrit + gr = %.17g (RCrit %g, gr %g): squared form %v, root form %v",
				d, s, c.RCrit, gr, got, want)
		}
	}
	t.Logf("%d pairs: skip/accept/open %v; %d inside the band (%d of them differ), %d / %d within 1e-9 outside it",
		pairs, verdicts, inBand, flipped, nearAccept, nearOpen)
	for a, n := range verdicts {
		if n < pairs/200 {
			t.Errorf("vacuous: only %d pairs classified %d", n, a)
		}
	}
	if inBand < 1000 || nearAccept < 1000 || nearOpen < 1000 {
		t.Errorf("vacuous: %d pairs inside the band, %d and %d just outside it", inBand, nearAccept, nearOpen)
	}
}

// TestClassifyBoundConservative is the push's safety property on the
// squared form: whatever Classify opens for a sphere, ClassifyBound
// opens for any bound that encloses the sphere -- because the bound's
// nearest point is component-wise no farther from the cell than the
// sphere's centre, its radius no smaller, and both sides of the
// comparison monotone. Half the cells sit on the acceptance boundary of
// the sphere they are tested with (randomPair), where a form that
// rounded the two sides differently would show.
func TestClassifyBoundConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	opened, pruned := 0, 0
	for trial := 0; trial < 200_000; trial++ {
		c, gc, gr := randomPair(rng)
		// A bound over the sphere and up to three others around it; the
		// sphere stays inside whatever is added.
		var b Bound
		b.Add(gc, gr)
		for k := rng.Intn(4); k > 0; k-- {
			spread := math.Pow(10, -6*rng.Float64())
			b.Add(gc.Add(vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(spread)),
				gr*2*rng.Float64())
		}
		p := c.Mp.COM
		near, centre := p.Sub(b.Nearest(p)), p.Sub(gc)
		if math.Abs(near.X) > math.Abs(centre.X) || math.Abs(near.Y) > math.Abs(centre.Y) ||
			math.Abs(near.Z) > math.Abs(centre.Z) || b.R < gr {
			t.Fatalf("bound %+v does not enclose sphere %v/%g as seen from %v", b, gc, gr, p)
		}
		exact, over := Classify(&c, gc, gr), ClassifyBound(&c, &b)
		if over != Open {
			pruned++
		}
		if exact == Open {
			opened++
			if over != Open {
				t.Fatalf("cell %+v: sphere %v/%g opens it, its bound %+v gives %v", c, gc, gr, b, over)
			}
		}
		if (exact == Skip) != (over == Skip) {
			t.Fatalf("cell %+v: skip disagrees: %v for the sphere, %v for the bound", c, exact, over)
		}
	}
	if opened < 10_000 || pruned < 10_000 {
		t.Fatalf("vacuous: %d cells opened by a sphere, %d pruned by a bound", opened, pruned)
	}
}
