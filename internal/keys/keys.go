// Package keys implements the Morton-ordered key scheme at the heart
// of the hashed oct-tree: every body and every cell is named by a
// 64-bit key formed from the interleaved bits of its coordinates with
// a leading placeholder bit, so that the key itself encodes both the
// position and the depth of a tree node. Key arithmetic (parent,
// child, ancestor, containment) is pure bit manipulation, which is
// what lets the distributed tree use a single global name space: any
// processor can compute the key of any cell without communication.
//
// Conventions, following Warren & Salmon (Supercomputing '93):
//
//   - Coordinates are scaled to [0,1)^3 over the root cell and
//     quantized to MaxLevel = 21 bits per dimension.
//   - A key at tree level L has exactly 1 + 3L significant bits: the
//     placeholder 1 followed by one octant digit (3 bits) per level.
//   - The root key is 1. A body key is a level-21 key (64 bits with
//     the placeholder at bit 63).
//   - Octant digits are packed x-major: bit 2 of a digit is the x
//     bit, bit 1 is y, bit 0 is z.
package keys

import (
	"math"
	"math/bits"

	"repro/internal/vec"
)

// Key is a Morton key with placeholder bit.
type Key uint64

// MaxLevel is the deepest tree level representable: 21 octant digits
// plus the placeholder bit fill 64 bits.
const MaxLevel = 21

// Root is the key of the root cell.
const Root Key = 1

// Invalid is the zero Key, which names no cell (every valid key has
// its placeholder bit set).
const Invalid Key = 0

// coordBits is the per-dimension quantization.
const coordBits = MaxLevel

// coordMax is the largest quantized coordinate value.
const coordMax = 1<<coordBits - 1

// Valid reports whether k is a structurally valid key: nonzero and
// with a bit length of the form 1+3L.
func (k Key) Valid() bool {
	if k == 0 {
		return false
	}
	return (bits.Len64(uint64(k))-1)%3 == 0
}

// Level returns the tree level of k (0 for the root).
func (k Key) Level() int {
	return (bits.Len64(uint64(k)) - 1) / 3
}

// Parent returns the key of k's parent cell. The parent of the root
// is Invalid.
func (k Key) Parent() Key {
	if k <= Root {
		return Invalid
	}
	return k >> 3
}

// Child returns the key of k's child in the given octant (0..7).
func (k Key) Child(octant int) Key {
	return k<<3 | Key(octant&7)
}

// Octant returns which child of its parent k is (0..7).
func (k Key) Octant() int { return int(k & 7) }

// AncestorAt returns k's ancestor at the given level. It panics if
// level exceeds k's own level.
func (k Key) AncestorAt(level int) Key {
	d := k.Level() - level
	if d < 0 {
		panic("keys: AncestorAt level below key")
	}
	return k >> uint(3*d)
}

// Contains reports whether cell k is b itself or an ancestor of b.
func (k Key) Contains(b Key) bool {
	d := b.Level() - k.Level()
	if d < 0 {
		return false
	}
	return b>>uint(3*d) == k
}

// MinBody returns the smallest body-level (level MaxLevel) key inside
// cell k, i.e. the key of k's lower corner.
func (k Key) MinBody() Key {
	return k << uint(3*(MaxLevel-k.Level()))
}

// MaxBody returns the largest body-level key inside cell k.
func (k Key) MaxBody() Key {
	s := uint(3 * (MaxLevel - k.Level()))
	return k<<s | (1<<s - 1)
}

// Coords returns the integer coordinates of k's lower corner at k's
// own level resolution, plus the level. The coordinates range over
// [0, 2^level).
func (k Key) Coords() (x, y, z uint32, level int) {
	level = k.Level()
	body := uint64(k) &^ (1 << uint(3*level)) // strip placeholder
	x = compact1By2(body >> 2)
	y = compact1By2(body >> 1)
	z = compact1By2(body)
	return x, y, z, level
}

// FromCoords builds the key at the given level from integer
// coordinates in [0, 2^level).
func FromCoords(x, y, z uint32, level int) Key {
	body := spread1By2(uint64(x))<<2 | spread1By2(uint64(y))<<1 | spread1By2(uint64(z))
	return Key(body) | 1<<uint(3*level)
}

// Domain describes the cubic root cell of a simulation.
type Domain struct {
	Origin vec.V3  // lower corner
	Size   float64 // edge length
}

// Box is an axis-aligned bounding box. A box with Lo above Hi on some
// axis is empty; EmptyBox is the one Union starts from.
type Box struct{ Lo, Hi vec.V3 }

// EmptyBox returns the box of no points, the identity of Union.
func EmptyBox() Box {
	inf := math.Inf(1)
	return Box{Lo: vec.V3{X: inf, Y: inf, Z: inf}, Hi: vec.V3{X: -inf, Y: -inf, Z: -inf}}
}

// BoxOf returns the bounding box of pos (EmptyBox for none).
func BoxOf(pos []vec.V3) Box {
	b := EmptyBox()
	for _, p := range pos {
		b.Lo = vec.Min(b.Lo, p)
		b.Hi = vec.Max(b.Hi, p)
	}
	return b
}

// Union returns the bounding box of both boxes. It is exact, so the
// union of many boxes does not depend on the order they are taken in.
func (b Box) Union(o Box) Box {
	return Box{Lo: vec.Min(b.Lo, o.Lo), Hi: vec.Max(b.Hi, o.Hi)}
}

// Empty reports whether b holds no point.
func (b Box) Empty() bool {
	return !(b.Lo.X <= b.Hi.X && b.Lo.Y <= b.Hi.Y && b.Lo.Z <= b.Hi.Z)
}

// Span returns b's largest edge.
func (b Box) Span() float64 {
	return max(b.Hi.X-b.Lo.X, b.Hi.Y-b.Lo.Y, b.Hi.Z-b.Lo.Z)
}

// MaxDomainRatio bounds DomainOf's cube over the span of its box: the
// lattice adds at most span/128, the ladder a rung of at most 1.045 and
// the margin 2^-15, so Size < 1.054 * span.
const MaxDomainRatio = 1.06

// minSpan is the smallest span DomainOf resolves; below it (a single
// body, coincident bodies) the box is taken to span 1, which keeps the
// lattice and the cube normal floating-point numbers.
const minSpan = 0x1p-1000

// ladder holds the cube sizes of one octave, in units of its top: the
// geometric rungs 2^(k/16 - 1), k = 1..16, rounded to 1/1024 so each is
// exact. Consecutive rungs differ by 4.3% to 4.5%.
var ladder = [...]float64{
	535. / 1024, 558. / 1024, 583. / 1024, 609. / 1024, 636. / 1024, 664. / 1024, 693. / 1024, 724. / 1024,
	756. / 1024, 790. / 1024, 825. / 1024, 861. / 1024, 899. / 1024, 939. / 1024, 981. / 1024, 1,
}

// DomainOf is the one rule that turns the global bounding box of the
// bodies into the key domain: every rank, the serial tree and the
// replay call it on the same box and get the same bits. It is
// piecewise constant in the box, so a distributed step can key its
// bodies with the domain it predicts and check the prediction against
// the gathered boxes instead of reducing the box first (internal/domain
// Decomposer.DecomposeGlobal):
//
//   - the origin is the box's lower corner snapped down, per axis, to a
//     lattice of spacing Lattice(span), a power of two between span/256
//     and span/128;
//   - the size is the rung of a fixed geometric ladder (sixteen rungs
//     an octave) at or above span + lattice, with a 2^-16 relative
//     margin, so every point of the box quantizes strictly inside
//     [0, 2^21).
//
// The arithmetic is Frexp, Ldexp, Floor, comparisons and a few IEEE
// subtractions or additions -- no Log, Exp or other library rounding --
// so it is the same bits on every architecture. An empty box is the
// unit cube at the origin. The box's coordinates must be finite and
// below 2^1020 in magnitude.
func DomainOf(b Box) Domain {
	if b.Empty() {
		return Domain{Size: 1}
	}
	span := b.Span()
	if !(span >= minSpan) {
		span = 1
	}
	ce := latticeExp(span)
	return Domain{
		Origin: vec.V3{X: snap(b.Lo.X, ce), Y: snap(b.Lo.Y, ce), Z: snap(b.Lo.Z, ce)},
		Size:   LadderAbove(span + math.Ldexp(1, ce)),
	}
}

// Lattice returns the origin lattice's spacing for a box of the given
// span (at least minSpan): 2^(e-8) for span in [2^(e-1), 2^e).
func Lattice(span float64) float64 { return math.Ldexp(1, latticeExp(span)) }

func latticeExp(span float64) int {
	_, e := math.Frexp(span)
	return e - 8
}

// LadderAbove returns the smallest ladder size at or above
// t * (1 + 2^-16), roughly: the mantissa of t plus 2^-16, rounded up to
// the next rung.
func LadderAbove(t float64) float64 {
	m, e := math.Frexp(t)
	m += 0x1p-16
	for _, r := range ladder {
		if m <= r {
			return math.Ldexp(r, e)
		}
	}
	return math.Ldexp(ladder[0], e+1)
}

// snap returns x rounded down to a multiple of 2^ce. x is one already
// when its last mantissa bit is worth 2^ce or more, and then x / 2^ce
// could overflow, so it is returned as is; otherwise the quotient is
// below 2^53 and both scalings are exact.
func snap(x float64, ce int) float64 {
	if _, xe := math.Frexp(x); x == 0 || xe-53 >= ce {
		return x
	}
	return math.Ldexp(math.Floor(math.Ldexp(x, -ce)), ce)
}

// NewDomain returns DomainOf the bounding box of pos.
func NewDomain(pos []vec.V3) Domain {
	return DomainOf(BoxOf(pos))
}

// KeyOf returns the body-level key of position p within the domain.
// Positions outside the domain are clamped to the boundary.
func (d Domain) KeyOf(p vec.V3) Key {
	return FromCoords(d.quant(p.X, d.Origin.X), d.quant(p.Y, d.Origin.Y), d.quant(p.Z, d.Origin.Z), MaxLevel)
}

func (d Domain) quant(x, o float64) uint32 {
	f := (x - o) / d.Size
	q := int64(f * (1 << coordBits))
	if q < 0 {
		q = 0
	}
	if q > coordMax {
		q = coordMax
	}
	return uint32(q)
}

// CellCenter returns the center position and edge length of cell k.
func (d Domain) CellCenter(k Key) (center vec.V3, size float64) {
	x, y, z, level := k.Coords()
	size = d.Size / float64(uint64(1)<<uint(level))
	center = vec.V3{
		X: d.Origin.X + (float64(x)+0.5)*size,
		Y: d.Origin.Y + (float64(y)+0.5)*size,
		Z: d.Origin.Z + (float64(z)+0.5)*size,
	}
	return center, size
}

// spread1By2 spaces the low 21 bits of v three apart:
// ...abc -> ..a..b..c.
func spread1By2(v uint64) uint64 {
	v &= 0x1FFFFF
	v = (v | v<<32) & 0x1F00000000FFFF
	v = (v | v<<16) & 0x1F0000FF0000FF
	v = (v | v<<8) & 0x100F00F00F00F00F
	v = (v | v<<4) & 0x10C30C30C30C30C3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// compact1By2 is the inverse of spread1By2.
func compact1By2(v uint64) uint32 {
	v &= 0x1249249249249249
	v = (v ^ v>>2) & 0x10C30C30C30C30C3
	v = (v ^ v>>4) & 0x100F00F00F00F00F
	v = (v ^ v>>8) & 0x1F0000FF0000FF
	v = (v ^ v>>16) & 0x1F00000000FFFF
	v = (v ^ v>>32) & 0x1FFFFF
	return uint32(v)
}

// CommonAncestor returns the deepest cell containing both a and b.
func CommonAncestor(a, b Key) Key {
	la, lb := a.Level(), b.Level()
	if la > lb {
		a = a.AncestorAt(lb)
		la = lb
	} else if lb > la {
		b = b.AncestorAt(la)
	}
	for a != b {
		a >>= 3
		b >>= 3
	}
	return a
}
