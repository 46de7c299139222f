package domain

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/msg"
	"repro/internal/vec"
)

// FuzzDomainOf holds keys.DomainOf, the one rule every rank keys its
// bodies by, to what the predicted domain of a warm step needs, over
// finite boxes of any span (zero: one body; subnormal; up to 2^1021)
// anywhere below 2^1020 in magnitude:
//   - every point of the box quantizes strictly inside [0, 2^21), as
//     Domain.KeyOf scales it, with no clamping;
//   - the cube is at most keys.MaxDomainRatio times the span (of 1
//     below the smallest span the rule resolves);
//   - a box moved within its lattice cells, whose span stays on its
//     lattice and its ladder rung, maps to the identical domain;
//   - GlobalDomain over the box's corners and points spread over ranks,
//     some of them empty, is keys.NewDomain over all of them, and both
//     are the unit cube at the origin for no body at all.
func FuzzDomainOf(f *testing.F) {
	f.Add(-1.0, -2.0, -3.0, 1.0, 2.0, 3.0, 0.5, 0.5)
	f.Add(5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 0.0, 1.0)              // one body
	f.Add(-9.7, -8.1, -9.9, 9.4, 9.8, 8.7, 0.99, 0.999)        // a Plummer sphere
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.25, 0.75)            // on the lattice
	f.Add(1e306, -1e306, 1e306, 1e306, 1e306, 1e306, 0.3, 0.7) // huge
	f.Add(1e300, 1e300, 1e300, 1e300+1e285, 1e300, 1e300, 0.1, 0.9)
	f.Add(-1e-310, 0.0, 1e-320, 1e-310, 1e-310, 1e-310, 0.5, 0.5) // subnormal
	f.Add(3.0, 3.0, 3.0, 3.0+0x1p-1010, 3.0, 3.0, 0.5, 0.5)
	f.Add(-0.0, 0.0, -1.0, 0.0, 4.0, -0.5, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, x0, y0, z0, x1, y1, z1, u, w float64) {
		const limit = 0x1p1020
		for _, v := range []float64{x0, y0, z0, x1, y1, z1} {
			if !(math.Abs(v) < limit) {
				return
			}
		}
		u, w = fraction(u), fraction(w)
		b := keys.Box{
			Lo: vec.V3{X: min(x0, x1), Y: min(y0, y1), Z: min(z0, z1)},
			Hi: vec.V3{X: max(x0, x1), Y: max(y0, y1), Z: max(z0, z1)},
		}
		d := keys.DomainOf(b)
		span := b.Span()

		// Strictly inside, at the corners: the quantization rises with
		// the coordinate.
		if !(d.Size > 0) {
			t.Fatalf("box %+v: domain %+v", b, d)
		}
		for _, ax := range [3][3]float64{{b.Lo.X, b.Hi.X, d.Origin.X}, {b.Lo.Y, b.Hi.Y, d.Origin.Y}, {b.Lo.Z, b.Hi.Z, d.Origin.Z}} {
			for _, x := range ax[:2] {
				if q := (x - ax[2]) / d.Size * (1 << keys.MaxLevel); !(q >= 0 && q < 1<<keys.MaxLevel) {
					t.Fatalf("box %+v, domain %+v: coordinate %g quantizes to %g", b, d, x, q)
				}
			}
		}

		// No larger than it says. Below 2^-1000 the rule takes the span
		// to be 1.
		ref := span
		if !(span >= 0x1p-1000) {
			ref = 1
		}
		if d.Size > keys.MaxDomainRatio*ref {
			t.Fatalf("box %+v: cube %g is %g spans of %g", b, d.Size, d.Size/ref, ref)
		}

		// Piecewise constant: move the box up within its lattice cells
		// by u, shrink its edges by w; where the lattice and the rung
		// stay, so must the domain.
		cell := keys.Lattice(ref)
		moved := b
		for _, a := range []struct{ lo, hi, o *float64 }{
			{&moved.Lo.X, &moved.Hi.X, &d.Origin.X}, {&moved.Lo.Y, &moved.Hi.Y, &d.Origin.Y}, {&moved.Lo.Z, &moved.Hi.Z, &d.Origin.Z},
		} {
			edge := *a.hi - *a.lo
			*a.lo += u * (*a.o + cell - *a.lo)
			*a.hi = *a.lo + w*edge
		}
		mspan := moved.Span()
		mref := mspan
		if !(mspan >= 0x1p-1000) {
			mref = 1
		}
		sameCell := keys.Lattice(mref) == cell && keys.LadderAbove(mref+cell) == keys.LadderAbove(ref+cell)
		for _, a := range [3][2]float64{{moved.Lo.X, d.Origin.X}, {moved.Lo.Y, d.Origin.Y}, {moved.Lo.Z, d.Origin.Z}} {
			sameCell = sameCell && a[0] >= a[1] && a[0] < a[1]+cell
		}
		if md := keys.DomainOf(moved); sameCell && md != d {
			t.Fatalf("box %+v -> %+v stays in its lattice cell and ladder rung, domain %+v -> %+v", b, moved, d, md)
		}

		// One rule everywhere: the corners and a point inside, over three
		// ranks, the last of them empty.
		pts := []vec.V3{b.Lo, b.Hi, {X: b.Lo.X + u*(b.Hi.X-b.Lo.X), Y: b.Hi.Y, Z: b.Lo.Z}}
		want := keys.NewDomain(pts)
		if want != d {
			t.Fatalf("box %+v: NewDomain of its corners %+v, DomainOf %+v", b, want, d)
		}
		msg.Run(3, func(c *msg.Comm) {
			local := core.New(0)
			for i, p := range pts {
				if i%2 == c.Rank() {
					local.Pos = append(local.Pos, p)
				}
			}
			if got := GlobalDomain(c, local); got != want {
				t.Errorf("rank %d: GlobalDomain %+v, NewDomain %+v", c.Rank(), got, want)
			}
			if got := GlobalDomain(c, core.New(0)); got != keys.NewDomain(nil) || got != (keys.Domain{Size: 1}) {
				t.Errorf("rank %d: GlobalDomain of no body %+v, NewDomain %+v", c.Rank(), got, keys.NewDomain(nil))
			}
		})
	})
}

// fraction maps any float64 into [0, 1): its fractional part's
// magnitude, 0 for NaN and the infinities.
func fraction(v float64) float64 {
	if f := math.Abs(v - math.Trunc(v)); f < 1 {
		return f
	}
	return 0
}
