package keys

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestRootProperties(t *testing.T) {
	if Root.Level() != 0 {
		t.Fatalf("root level = %d", Root.Level())
	}
	if Root.Parent() != Invalid {
		t.Fatalf("root parent = %v", Root.Parent())
	}
	if !Root.Valid() {
		t.Fatal("root should be valid")
	}
	if Invalid.Valid() {
		t.Fatal("invalid key should not be valid")
	}
}

func TestChildParentRoundTrip(t *testing.T) {
	k := Root
	for level := 1; level <= MaxLevel; level++ {
		oct := level % 8
		c := k.Child(oct)
		if c.Level() != level {
			t.Fatalf("level %d: child level = %d", level, c.Level())
		}
		if c.Parent() != k {
			t.Fatalf("level %d: parent mismatch", level)
		}
		if c.Octant() != oct {
			t.Fatalf("level %d: octant = %d want %d", level, c.Octant(), oct)
		}
		if !k.Contains(c) {
			t.Fatalf("level %d: parent does not contain child", level)
		}
		if c.Contains(k) {
			t.Fatalf("level %d: child contains parent", level)
		}
		k = c
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		level := rng.Intn(MaxLevel + 1)
		max := uint32(1) << uint(level)
		x, y, z := rng.Uint32()%max, rng.Uint32()%max, rng.Uint32()%max
		if level == 0 {
			x, y, z = 0, 0, 0
		}
		k := FromCoords(x, y, z, level)
		if !k.Valid() {
			t.Fatalf("FromCoords(%d,%d,%d,%d) invalid", x, y, z, level)
		}
		gx, gy, gz, gl := k.Coords()
		if gx != x || gy != y || gz != z || gl != level {
			t.Fatalf("round trip (%d,%d,%d,%d) -> (%d,%d,%d,%d)", x, y, z, level, gx, gy, gz, gl)
		}
	}
}

// Property: Morton order preserves the containment interval structure:
// all body keys inside a cell lie in [MinBody, MaxBody].
func TestBodyRangeProperty(t *testing.T) {
	f := func(xa, ya, za uint32, lvl uint8) bool {
		level := int(lvl) % (MaxLevel + 1)
		max := uint32(1) << uint(level)
		x, y, z := xa%max, ya%max, za%max
		if level == 0 {
			x, y, z = 0, 0, 0
		}
		cell := FromCoords(x, y, z, level)
		lo, hi := cell.MinBody(), cell.MaxBody()
		if lo.Level() != MaxLevel || hi.Level() != MaxLevel {
			return false
		}
		if !cell.Contains(lo) || !cell.Contains(hi) {
			return false
		}
		// A body just outside must not be contained.
		if lo > 1<<63 { // lo-1 still a body key
			if cell.Contains(lo - 1) {
				return false
			}
		}
		return lo <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAncestorAt(t *testing.T) {
	k := FromCoords(123456, 654321, 111111, MaxLevel)
	for l := 0; l <= MaxLevel; l++ {
		a := k.AncestorAt(l)
		if a.Level() != l {
			t.Fatalf("AncestorAt(%d).Level() = %d", l, a.Level())
		}
		if !a.Contains(k) {
			t.Fatalf("AncestorAt(%d) does not contain key", l)
		}
	}
	if k.AncestorAt(0) != Root {
		t.Fatal("level-0 ancestor should be root")
	}
}

func TestCommonAncestor(t *testing.T) {
	a := Root.Child(0).Child(1).Child(2)
	b := Root.Child(0).Child(1).Child(5)
	if got := CommonAncestor(a, b); got != Root.Child(0).Child(1) {
		t.Fatalf("CommonAncestor = %v", got)
	}
	c := Root.Child(7)
	if got := CommonAncestor(a, c); got != Root {
		t.Fatalf("CommonAncestor across root = %v", got)
	}
	if got := CommonAncestor(a, a); got != a {
		t.Fatalf("CommonAncestor(a,a) = %v", got)
	}
	// Different levels: ancestor of both.
	if got := CommonAncestor(a, a.Parent()); got != a.Parent() {
		t.Fatalf("CommonAncestor(a,parent) = %v", got)
	}
}

func TestDomainKeyOf(t *testing.T) {
	d := Domain{Origin: vec.V3{X: -1, Y: -1, Z: -1}, Size: 2}
	// The lower corner maps to key with coords (0,0,0).
	k := d.KeyOf(vec.V3{X: -1, Y: -1, Z: -1})
	x, y, z, _ := k.Coords()
	if x != 0 || y != 0 || z != 0 {
		t.Fatalf("lower corner coords = %d,%d,%d", x, y, z)
	}
	// The upper corner clamps to coordMax.
	k = d.KeyOf(vec.V3{X: 1, Y: 1, Z: 1})
	x, y, z, _ = k.Coords()
	if x != coordMax || y != coordMax || z != coordMax {
		t.Fatalf("upper corner coords = %d,%d,%d", x, y, z)
	}
	// Out-of-domain positions clamp rather than wrap.
	k = d.KeyOf(vec.V3{X: 100, Y: -100, Z: 0})
	x, y, z, _ = k.Coords()
	if x != coordMax || y != 0 {
		t.Fatalf("clamped coords = %d,%d,%d", x, y, z)
	}
}

// Property: Morton order of keys respects spatial octant order at the
// top level: points in the lower x half always sort before points in
// the upper x half when y,z octant bits agree.
func TestMortonSpatialOrder(t *testing.T) {
	d := Domain{Origin: vec.V3{}, Size: 1}
	lo := d.KeyOf(vec.V3{X: 0.1, Y: 0.1, Z: 0.1})
	hi := d.KeyOf(vec.V3{X: 0.9, Y: 0.1, Z: 0.1})
	if lo >= hi {
		t.Fatal("x-order violated at top level")
	}
}

func TestCellCenter(t *testing.T) {
	d := Domain{Origin: vec.V3{X: 0, Y: 0, Z: 0}, Size: 8}
	c, s := d.CellCenter(Root)
	if s != 8 {
		t.Fatalf("root size = %v", s)
	}
	if c != (vec.V3{X: 4, Y: 4, Z: 4}) {
		t.Fatalf("root center = %v", c)
	}
	// Child 7 (x=1,y=1,z=1) is the upper octant.
	c, s = d.CellCenter(Root.Child(7))
	if s != 4 {
		t.Fatalf("child size = %v", s)
	}
	if c != (vec.V3{X: 6, Y: 6, Z: 6}) {
		t.Fatalf("child 7 center = %v", c)
	}
	c, _ = d.CellCenter(Root.Child(0))
	if c != (vec.V3{X: 2, Y: 2, Z: 2}) {
		t.Fatalf("child 0 center = %v", c)
	}
}

func TestNewDomainContainsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pos := make([]vec.V3, 500)
	for i := range pos {
		pos[i] = vec.V3{X: rng.NormFloat64() * 10, Y: rng.NormFloat64(), Z: rng.NormFloat64() * 3}
	}
	d := NewDomain(pos)
	for _, p := range pos {
		f := p.Sub(d.Origin)
		if f.X < 0 || f.Y < 0 || f.Z < 0 || f.X >= d.Size || f.Y >= d.Size || f.Z >= d.Size {
			t.Fatalf("position %v outside domain %+v", p, d)
		}
	}
	// Degenerate inputs.
	if d := NewDomain(nil); d.Size <= 0 {
		t.Fatal("empty domain must have positive size")
	}
	if d := NewDomain([]vec.V3{{X: 1, Y: 1, Z: 1}}); d.Size <= 0 {
		t.Fatal("single-point domain must have positive size")
	}
}

func BenchmarkKeyFromPos(b *testing.B) {
	d := Domain{Origin: vec.V3{}, Size: 1}
	p := vec.V3{X: 0.123, Y: 0.456, Z: 0.789}
	var sink Key
	for i := 0; i < b.N; i++ {
		sink ^= d.KeyOf(p)
	}
	_ = sink
}
