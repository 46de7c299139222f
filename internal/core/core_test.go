package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/keys"
	"repro/internal/vec"
)

func randomSystem(n int, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	s := New(n)
	s.EnableDynamics()
	for i := 0; i < n; i++ {
		s.Pos[i] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		s.Vel[i] = vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		s.Mass[i] = rng.Float64() + 0.1
	}
	return s
}

func TestNewDefaults(t *testing.T) {
	s := New(5)
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := range s.Work {
		if s.Work[i] != 1 {
			t.Fatal("work not initialized to 1")
		}
		if s.ID[i] != int64(i) {
			t.Fatal("id not initialized")
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSortByKeyPermutesAllFields(t *testing.T) {
	s := randomSystem(200, 1)
	s.EnableVortex()
	s.EnableSPH()
	for i := range s.Alpha {
		s.Alpha[i] = s.Pos[i].Scale(2)
		s.H[i] = float64(i)
		s.Rho[i] = float64(i) * 2
	}
	d := keys.NewDomain(s.Pos)
	s.AssignKeys(d)

	// Remember identity -> position mapping.
	byID := make(map[int64]vec.V3)
	for i := range s.Pos {
		byID[s.ID[i]] = s.Pos[i]
	}
	s.SortByKey()
	if !s.Sorted() {
		t.Fatal("not sorted")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range s.Pos {
		if byID[s.ID[i]] != s.Pos[i] {
			t.Fatalf("body %d: position decoupled from id after sort", i)
		}
		if s.Alpha[i] != s.Pos[i].Scale(2) {
			t.Fatalf("body %d: alpha decoupled from pos after sort", i)
		}
		if s.Key[i] != d.KeyOf(s.Pos[i]) {
			t.Fatalf("body %d: key decoupled from pos", i)
		}
	}
}

// Property: sorting is idempotent and preserves multiset of IDs.
func TestSortPreservesBodiesProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := randomSystem(64, seed)
		d := keys.NewDomain(s.Pos)
		s.AssignKeys(d)
		seen := make(map[int64]bool)
		s.SortByKey()
		for _, id := range s.ID {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return len(seen) == 64 && s.Sorted()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMassAndEnergyDiagnostics(t *testing.T) {
	s := New(2)
	s.EnableDynamics()
	s.Mass[0], s.Mass[1] = 1, 3
	s.Pos[0] = vec.V3{X: 0}
	s.Pos[1] = vec.V3{X: 4}
	s.Vel[0] = vec.V3{X: 2}
	s.Vel[1] = vec.V3{X: -1}
	if m := s.TotalMass(); m != 4 {
		t.Fatalf("TotalMass = %v", m)
	}
	if c := s.CenterOfMass(); c != (vec.V3{X: 3}) {
		t.Fatalf("CenterOfMass = %v", c)
	}
	if p := s.Momentum(); p != (vec.V3{X: -1}) {
		t.Fatalf("Momentum = %v", p)
	}
	if e := s.KineticEnergy(); e != 0.5*1*4+0.5*3*1 {
		t.Fatalf("KineticEnergy = %v", e)
	}
	s.Pot[0], s.Pot[1] = -1, -2
	if e := s.PotentialEnergy(); e != 0.5*(1*-1+3*-2) {
		t.Fatalf("PotentialEnergy = %v", e)
	}
	if c := New(0).CenterOfMass(); c != (vec.V3{}) {
		t.Fatalf("empty CenterOfMass = %v", c)
	}
}

// withStepColumns gives s a vortex step's pre-step columns, filled with
// values of their own.
func withStepColumns(s *System) *System {
	s.Pos0, s.Alpha0 = make([]vec.V3, s.Len()), make([]vec.V3, s.Len())
	for i := range s.Pos0 {
		s.Pos0[i], s.Alpha0[i] = s.Pos[i].Scale(3), s.Vel[i].Scale(5)
	}
	return s
}

func TestSliceSharesStorage(t *testing.T) {
	s := withStepColumns(randomSystem(10, 3))
	v := s.Slice(2, 5)
	if v.Len() != 3 {
		t.Fatalf("slice len = %d", v.Len())
	}
	v.Pos[0] = vec.V3{X: 99}
	v.Pos0[1] = vec.V3{Y: 98}
	v.Alpha0[2] = vec.V3{Z: 97}
	if s.Pos[2].X != 99 || s.Pos0[3].Y != 98 || s.Alpha0[4].Z != 97 {
		t.Fatal("slice does not share storage")
	}
	if v.Acc == nil || v.Rung != nil {
		t.Fatal("slice changed which columns are present")
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

// AppendFrom and AppendRange copy every column the source has, the step
// columns among them, and zero-fill a column only the destination has;
// Reserve keeps the columns it is given, with room for n bodies.
func TestAppendFrom(t *testing.T) {
	src := withStepColumns(randomSystem(8, 4))
	dst := New(0)
	dst.EnableDynamics()
	for i := 0; i < 5; i++ {
		dst.AppendFrom(src, i)
	}
	if dst.Len() != 5 {
		t.Fatalf("len = %d", dst.Len())
	}
	for i := 0; i < 5; i++ {
		if dst.Pos[i] != src.Pos[i] || dst.Vel[i] != src.Vel[i] || dst.Mass[i] != src.Mass[i] ||
			dst.Pos0[i] != src.Pos0[i] || dst.Alpha0[i] != src.Alpha0[i] {
			t.Fatalf("body %d not copied faithfully", i)
		}
	}
	if err := dst.Validate(); err != nil {
		t.Fatal(err)
	}

	res := dst.Reserve(6)
	if cap(res.Pos0) != 6 || cap(res.Alpha0) != 6 || res.Len() != 0 || res.Rung != nil {
		t.Fatalf("Reserve: Pos0 cap %d, Alpha0 cap %d, len %d", cap(res.Pos0), cap(res.Alpha0), res.Len())
	}
	src.Pot = nil
	res.AppendRange(src, 1, 4)
	res.AppendRange(src, 5, 8)
	for i, j := range []int{1, 2, 3, 5, 6, 7} {
		if res.Pos[i] != src.Pos[j] || res.Vel[i] != src.Vel[j] || res.Pos0[i] != src.Pos0[j] ||
			res.Alpha0[i] != src.Alpha0[j] || res.Pot[i] != 0 {
			t.Fatalf("range body %d not copied from body %d faithfully", i, j)
		}
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

// A view lacks columns: a leaf's carries only what its physics reads, a
// Carried one drops what the receiver recomputes. Slice, Reserve and
// AppendRange keep exactly the columns a view has, nil where it lacks
// one, and its Bytes are its bodies at BodyBytes each: 32 B a gravity
// body, 48 B a vortex one, 80 B an SPH one.
func TestViews(t *testing.T) {
	s := withStepColumns(randomSystem(10, 5))
	s.EnableVortex()
	s.EnableSPH()
	for i := range s.Alpha {
		s.Alpha[i], s.H[i], s.Rho[i] = s.Pos[i].Scale(3), float64(i), float64(2*i)
	}
	for _, c := range []struct {
		name string
		v    System
		body int
	}{
		{"gravity", System{Pos: s.Pos, Mass: s.Mass}, 24 + 8},
		{"vortex", System{Pos: s.Pos, Alpha: s.Alpha}, 24 + 24},
		{"sph", System{Pos: s.Pos, Vel: s.Vel, Mass: s.Mass, H: s.H, Rho: s.Rho, ID: s.ID}, 24 + 24 + 8 + 8 + 8 + 8},
		// Pos, Mass, Work, ID, Vel, Alpha, H, Rho, Pos0, Alpha0.
		{"carried", *s.Carried(0, s.Len()), 24 + 8 + 8 + 8 + 24 + 24 + 8 + 8 + 24 + 24},
	} {
		v := &c.v
		if got := v.BodyBytes(); got != c.body {
			t.Errorf("%s: BodyBytes = %d, want %d", c.name, got, c.body)
		}
		if got := v.Bytes(); got != v.Len()*c.body || v.Len() != s.Len() {
			t.Errorf("%s: Bytes = %d over %d bodies, want %d", c.name, got, v.Len(), s.Len()*c.body)
		}
		sl := v.Slice(2, 5)
		if got := sl.Bytes(); got != 3*c.body {
			t.Errorf("%s: Bytes of a 3-body slice = %d, want %d", c.name, got, 3*c.body)
		}
		res := v.Reserve(6)
		res.AppendRange(v, 7, 10)
		res.AppendRange(sl, 0, 3)
		if got := res.Bytes(); got != res.Len()*res.BodyBytes() || res.BodyBytes() != c.body {
			t.Errorf("%s: appended Bytes = %d at %d a body, want %d a body", c.name, got, res.BodyBytes(), c.body)
		}
		want := reflect.ValueOf(v).Elem()
		for f := 0; f < want.NumField(); f++ {
			name, col := want.Type().Field(f).Name, want.Field(f)
			for _, got := range []struct {
				what   string
				sys    *System
				bodies []int
			}{{"Slice", sl, []int{2, 3, 4}}, {"Reserve+AppendRange", res, []int{7, 8, 9, 2, 3, 4}}} {
				g := reflect.ValueOf(got.sys).Elem().Field(f)
				if col.IsNil() {
					if !g.IsNil() {
						t.Errorf("%s: %s has column %s the view lacks", c.name, got.what, name)
					}
					continue
				}
				if g.Len() != len(got.bodies) {
					t.Fatalf("%s: %s column %s has %d bodies, want %d", c.name, got.what, name, g.Len(), len(got.bodies))
				}
				for i, j := range got.bodies {
					if g.Index(i).Interface() != col.Index(j).Interface() {
						t.Errorf("%s: %s column %s body %d is not body %d", c.name, got.what, name, i, j)
					}
				}
			}
		}
	}
	if got := (&System{}).Slice(0, 0); got.BodyBytes() != 0 || got.Len() != 0 {
		t.Errorf("an empty view's slice has %d bodies at %d B", got.Len(), got.BodyBytes())
	}
	// Emptying a store for reuse keeps its view by value, with no copy of
	// the header on the heap.
	v := System{Pos: s.Pos, Mass: s.Mass}
	if a := testing.AllocsPerRun(10, func() { v = *v.Slice(0, 0) }); a != 0 {
		t.Errorf("*Slice(0, 0) allocates %.0f times", a)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := New(3)
	s.Mass = s.Mass[:2]
	if err := s.Validate(); err == nil {
		t.Fatal("Validate missed short Mass")
	}
	s = New(3)
	s.Vel = make([]vec.V3, 1)
	if err := s.Validate(); err == nil {
		t.Fatal("Validate missed short Vel")
	}
	for _, short := range []func(*System){
		func(s *System) { s.Pos0 = make([]vec.V3, 2) },
		func(s *System) { s.Alpha0 = make([]vec.V3, 4) },
	} {
		s = New(3)
		short(s)
		if err := s.Validate(); err == nil {
			t.Fatal("Validate missed a step column of the wrong length")
		}
	}
}
