package core

import (
	"math/rand"
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

func TestSliceSharesStorage(t *testing.T) {
	s := randomSystem(10, 3)
	v := s.Slice(2, 5)
	if v.Len() != 3 {
		t.Fatalf("slice len = %d", v.Len())
	}
	v.Pos[0] = vec.V3{X: 99}
	if s.Pos[2].X != 99 {
		t.Fatal("slice does not share storage")
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendFrom(t *testing.T) {
	src := randomSystem(5, 4)
	dst := New(0)
	dst.EnableDynamics()
	for i := 0; i < src.Len(); i++ {
		dst.AppendFrom(src, i)
	}
	if dst.Len() != 5 {
		t.Fatalf("len = %d", dst.Len())
	}
	for i := 0; i < 5; i++ {
		if dst.Pos[i] != src.Pos[i] || dst.Vel[i] != src.Vel[i] || dst.Mass[i] != src.Mass[i] {
			t.Fatalf("body %d not copied faithfully", i)
		}
	}
	if err := dst.Validate(); err != nil {
		t.Fatal(err)
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
}
