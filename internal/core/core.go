// Package core defines the particle system shared by every physics
// module: a structure-of-arrays container for bodies with the fields
// the hashed oct-tree needs (position, mass, Morton key, work weight)
// plus optional per-application fields (velocity, acceleration,
// potential, vortex strength, smoothing length).
//
// Structure-of-arrays keeps the gravity kernel's memory traffic at the
// paper's 32 bytes per interaction and makes the sort/exchange steps
// of the domain decomposition simple slice permutations.
package core

import (
	"fmt"

	"repro/internal/keys"
	"repro/internal/vec"
)

// System holds N bodies. Pos, Mass, Key, Work and ID always have
// length N; the remaining slices are either nil (feature unused) or
// length N.
type System struct {
	Pos  []vec.V3
	Mass []float64
	Key  []keys.Key
	// Work is a body's cost in its last force evaluation, a count of
	// interactions (and SPH neighbour pairs) that weights the domain
	// decomposition; every sum of it is exact in any order. A group of N
	// bodies costs N·(cells + sources) + N(N-1): its N-th share is exact.
	Work []uint64
	// ID is a stable identity that survives sorting and exchange.
	ID []int64

	Vel []vec.V3
	Acc []vec.V3
	Pot []float64
	// Alpha is the vector-valued vortex particle strength.
	Alpha []vec.V3
	// H is the SPH smoothing length; Rho the SPH density.
	H   []float64
	Rho []float64
	// Rung is the block-timestep rung: body i sub-steps the global
	// step in 2^Rung[i] pieces. Carried through sort and exchange so
	// bodies keep their rung when they migrate ranks mid-step.
	Rung []uint8
	// Pos0 and Alpha0 are a vortex step's pre-step position and
	// strength. They are columns so that the exchange between the
	// step's two evaluations moves them with their bodies; outside a
	// step they are nil.
	Pos0, Alpha0 []vec.V3
}

// New returns a system of n bodies with the always-present fields
// allocated and Work initialized to 1 (uniform first-step weights).
func New(n int) *System {
	s := &System{
		Pos:  make([]vec.V3, n),
		Mass: make([]float64, n),
		Key:  make([]keys.Key, n),
		Work: make([]uint64, n),
		ID:   make([]int64, n),
	}
	for i := range s.Work {
		s.Work[i] = 1
		s.ID[i] = int64(i)
	}
	return s
}

// Len returns the number of bodies.
func (s *System) Len() int { return len(s.Pos) }

// EnableDynamics allocates Vel, Acc and Pot if absent.
func (s *System) EnableDynamics() {
	n := s.Len()
	if s.Vel == nil {
		s.Vel = make([]vec.V3, n)
	}
	if s.Acc == nil {
		s.Acc = make([]vec.V3, n)
	}
	if s.Pot == nil {
		s.Pot = make([]float64, n)
	}
}

// EnableVortex allocates the vortex strength field if absent.
func (s *System) EnableVortex() {
	if s.Alpha == nil {
		s.Alpha = make([]vec.V3, s.Len())
	}
}

// EnableRungs allocates the block-timestep rung field if absent
// (all bodies start on rung zero: the full global step).
func (s *System) EnableRungs() {
	if s.Rung == nil {
		s.Rung = make([]uint8, s.Len())
	}
}

// EnableSPH allocates the SPH fields if absent.
func (s *System) EnableSPH() {
	if s.H == nil {
		s.H = make([]float64, s.Len())
	}
	if s.Rho == nil {
		s.Rho = make([]float64, s.Len())
	}
}

// AssignKeys computes Morton keys for every body within the domain.
func (s *System) AssignKeys(d keys.Domain) {
	for i, p := range s.Pos {
		s.Key[i] = d.KeyOf(p)
	}
}

// Sorted reports whether keys are in ascending order.
func (s *System) Sorted() bool {
	for i := 1; i < len(s.Key); i++ {
		if s.Key[i] < s.Key[i-1] {
			return false
		}
	}
	return true
}

// TotalMass returns the mass sum.
func (s *System) TotalMass() float64 {
	m := 0.0
	for _, v := range s.Mass {
		m += v
	}
	return m
}

// CenterOfMass returns the mass-weighted mean position.
func (s *System) CenterOfMass() vec.V3 {
	var c vec.V3
	m := 0.0
	for i := range s.Pos {
		c = c.Add(s.Pos[i].Scale(s.Mass[i]))
		m += s.Mass[i]
	}
	if m == 0 {
		return vec.V3{}
	}
	return c.Scale(1 / m)
}

// Momentum returns the total momentum (requires Vel).
func (s *System) Momentum() vec.V3 {
	var p vec.V3
	for i := range s.Vel {
		p = p.Add(s.Vel[i].Scale(s.Mass[i]))
	}
	return p
}

// KineticEnergy returns sum(m v^2 / 2) (requires Vel).
func (s *System) KineticEnergy() float64 {
	e := 0.0
	for i := range s.Vel {
		e += 0.5 * s.Mass[i] * s.Vel[i].Norm2()
	}
	return e
}

// PotentialEnergy returns sum(m pot)/2 (requires Pot filled by a force
// evaluation; the half corrects for double counting pairs).
func (s *System) PotentialEnergy() float64 {
	e := 0.0
	for i := range s.Pot {
		e += 0.5 * s.Mass[i] * s.Pot[i]
	}
	return e
}

// Slice returns a view of bodies [lo,hi) sharing storage with s.
func (s *System) Slice(lo, hi int) *System {
	return &System{
		Pos: s.Pos[lo:hi], Mass: s.Mass[lo:hi], Key: s.Key[lo:hi],
		Work: s.Work[lo:hi], ID: s.ID[lo:hi], Vel: view(s.Vel, lo, hi),
		Acc: view(s.Acc, lo, hi), Pot: view(s.Pot, lo, hi), Alpha: view(s.Alpha, lo, hi),
		H: view(s.H, lo, hi), Rho: view(s.Rho, lo, hi), Rung: view(s.Rung, lo, hi),
		Pos0: view(s.Pos0, lo, hi), Alpha0: view(s.Alpha0, lo, hi),
	}
}

// view is col[lo:hi], or nil for an absent column.
func view[T any](col []T, lo, hi int) []T {
	if col == nil {
		return nil
	}
	return col[lo:hi]
}

// AppendFrom appends body i of src to s.
func (s *System) AppendFrom(src *System, i int) { s.AppendRange(src, i, i+1) }

// AppendRange appends bodies [lo, hi) of src to s, column by column:
// every column either has, with src's values where src has the column
// and zeros where only s has it.
func (s *System) AppendRange(src *System, lo, hi int) {
	s.Pos = appendCol(s.Pos, src.Pos, lo, hi)
	s.Mass = appendCol(s.Mass, src.Mass, lo, hi)
	s.Key = appendCol(s.Key, src.Key, lo, hi)
	s.Work = appendCol(s.Work, src.Work, lo, hi)
	s.ID = appendCol(s.ID, src.ID, lo, hi)
	s.Vel = appendCol(s.Vel, src.Vel, lo, hi)
	s.Acc = appendCol(s.Acc, src.Acc, lo, hi)
	s.Pot = appendCol(s.Pot, src.Pot, lo, hi)
	s.Alpha = appendCol(s.Alpha, src.Alpha, lo, hi)
	s.H = appendCol(s.H, src.H, lo, hi)
	s.Rho = appendCol(s.Rho, src.Rho, lo, hi)
	s.Rung = appendCol(s.Rung, src.Rung, lo, hi)
	s.Pos0 = appendCol(s.Pos0, src.Pos0, lo, hi)
	s.Alpha0 = appendCol(s.Alpha0, src.Alpha0, lo, hi)
}

func appendCol[T any](dst, src []T, lo, hi int) []T {
	switch {
	case src != nil:
		return append(dst, src[lo:hi]...)
	case dst != nil:
		return append(dst, make([]T, hi-lo)...)
	}
	return nil
}

// Reserve returns an empty system with the columns s has, each with
// room for n bodies.
func (s *System) Reserve(n int) *System {
	return &System{
		Pos: reserve(s.Pos, n), Mass: reserve(s.Mass, n), Key: reserve(s.Key, n),
		Work: reserve(s.Work, n), ID: reserve(s.ID, n), Vel: reserve(s.Vel, n),
		Acc: reserve(s.Acc, n), Pot: reserve(s.Pot, n), Alpha: reserve(s.Alpha, n),
		H: reserve(s.H, n), Rho: reserve(s.Rho, n), Rung: reserve(s.Rung, n),
		Pos0: reserve(s.Pos0, n), Alpha0: reserve(s.Alpha0, n),
	}
}

func reserve[T any](col []T, n int) []T {
	if col == nil {
		return nil
	}
	return make([]T, 0, n)
}

// Carried returns the view of bodies [lo, hi) that moves with them to
// another rank: every column of s but Key, Acc and Pot, which the
// receiver recomputes, and Rho only beside H. What arrives is laid out
// by Land.
func (s *System) Carried(lo, hi int) *System {
	v := s.Slice(lo, hi)
	v.Key, v.Acc, v.Pot = nil, nil, nil
	if v.H == nil {
		v.Rho = nil
	}
	return v
}

// Bytes is the size of s's columns: its bodies times the bytes of one
// body over the columns it has.
func (s *System) Bytes() int {
	const v3, f64 = 24, 8
	return v3*(len(s.Pos)+len(s.Vel)+len(s.Acc)+len(s.Alpha)+len(s.Pos0)+len(s.Alpha0)) + len(s.Rung) +
		f64*(len(s.Mass)+len(s.Key)+len(s.Work)+len(s.ID)+len(s.Pot)+len(s.H)+len(s.Rho))
}

// Land lays s out as bodies are after a move to another rank: Vel, Acc
// and Pot if s has any of them, Acc and Pot zeroed (the next force
// evaluation fills them), and Rho beside H and only there.
func (s *System) Land() {
	if s.Vel != nil || s.Acc != nil || s.Pot != nil {
		s.EnableDynamics()
		clear(s.Acc)
		clear(s.Pot)
	}
	if s.H != nil {
		s.EnableSPH()
	} else {
		s.Rho = nil
	}
}

// Validate checks internal consistency (slice lengths), returning a
// descriptive error for misuse.
func (s *System) Validate() error {
	n := s.Len()
	check := func(name string, l, want int) error {
		if l != want {
			return fmt.Errorf("core: field %s has length %d, want %d", name, l, want)
		}
		return nil
	}
	if err := check("Mass", len(s.Mass), n); err != nil {
		return err
	}
	if err := check("Key", len(s.Key), n); err != nil {
		return err
	}
	if err := check("Work", len(s.Work), n); err != nil {
		return err
	}
	if err := check("ID", len(s.ID), n); err != nil {
		return err
	}
	for name, l := range map[string]int{
		"Vel": len(s.Vel), "Acc": len(s.Acc), "Pot": len(s.Pot),
		"Alpha": len(s.Alpha), "H": len(s.H), "Rho": len(s.Rho),
		"Rung": len(s.Rung), "Pos0": len(s.Pos0), "Alpha0": len(s.Alpha0),
	} {
		if l != 0 {
			if err := check(name, l, n); err != nil {
				return err
			}
		}
	}
	return nil
}
