package hot

import (
	"math"
	"testing"

	"repro/internal/diag"
	"repro/internal/integrate"
	"repro/internal/parallel"
	"repro/internal/runner"
)

// The serial engine's block scheduler with every body on rung zero is
// bit for bit the historical uniform leapfrog: same tree builds, same
// group walks, same kicks.
func TestSerialBlockOneRungBitwise(t *testing.T) {
	bodies := PlummerSphere(1500, 1, 5)
	uni, err := NewSerial(bodies, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	blk, err := NewSerial(bodies, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	// Enormous eta: the acceleration criterion puts everything on rung
	// zero, so each global step is one full evaluation.
	blk.EnableBlockSteps(1e9)
	const dt, steps = 1e-3, 3
	for s := 0; s < steps; s++ {
		iu := uni.Step(dt)
		ib := blk.Step(dt)
		if iu.Interactions != ib.Interactions {
			t.Fatalf("step %d: %d interactions uniform, %d block", s, iu.Interactions, ib.Interactions)
		}
	}
	bu, bb := uni.Bodies(), blk.Bodies()
	for i := range bu {
		if bu[i] != bb[i] {
			t.Fatalf("body %d diverged: uniform %+v, block %+v", i, bu[i], bb[i])
		}
	}
	if st := blk.StepperStats(); st.PartialEvals != 0 || st.FullEvals != steps {
		t.Fatalf("one-rung block ran %d partial + %d full evals", st.PartialEvals, st.FullEvals)
	}
}

// Multi-rung serial block stepping: partial evaluations engage, the
// active set shrinks, and the energy stays on the uniform scale.
func TestSerialBlockPartialEvals(t *testing.T) {
	bodies := PlummerSphere(3000, 1, 5)
	uni, err := NewSerial(bodies, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	blk, err := NewSerial(bodies, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	blk.EnableBlockSteps(0.02)
	const dt, steps = 1e-3, 3
	var iu, ib StepInfo
	for s := 0; s < steps; s++ {
		iu = uni.Step(dt)
		ib = blk.Step(dt)
	}
	st := blk.StepperStats()
	if st.PartialEvals == 0 {
		t.Fatalf("no partial evaluations engaged: %+v", st)
	}
	if 2*st.ActiveSinks >= st.TotalSinks {
		t.Fatalf("active fraction %.3f, want the clustered Plummer core to keep it below 0.5",
			float64(st.ActiveSinks)/float64(st.TotalSinks))
	}
	eu, eb := iu.Kinetic+iu.Potential, ib.Kinetic+ib.Potential
	if rel := math.Abs((eb - eu) / eu); rel > 1e-4 {
		t.Fatalf("block energy %g departs from uniform %g by %g relative", eb, eu, rel)
	}
}

// drift is a run's departure from its initial invariants: energy
// relative to |E(0)|, linear momentum relative to sum m|v| and angular
// momentum relative to sum m|r x v|, both scales at t = 0.
type drift struct{ energy, momentum, angular float64 }

// conservationDrift runs n Plummer bodies at the default operating
// point (Salmon-Warren atol 1e-4, quadrupoles, eps 1e-3) for steps
// steps of dt on np ranks, block steps when eta > 0, and returns the
// drift after the last.
func conservationDrift(t *testing.T, n, np, steps int, dt, eta float64) drift {
	t.Helper()
	sys := toSystem(PlummerSphere(n, 1, 38))
	p0, l0 := sys.Momentum(), integrate.AngularMomentum(sys)
	var pScale, lScale float64
	for i := range sys.Pos {
		pScale += sys.Mass[i] * sys.Vel[i].Norm()
		lScale += sys.Mass[i] * sys.Pos[i].Cross(sys.Vel[i]).Norm()
	}
	g := Defaults().gravity()
	g.Eta = eta
	var e0, e1 float64
	run, err := runner.Run(runner.Plan{
		NP: np, Steps: steps, DT: dt, System: sys, Physics: g,
		OnStep: func(rank, step int, e runner.Engine, _ diag.Counters) {
			if step != -1 && step != steps-1 {
				return
			}
			kin, pot := e.(*parallel.Engine).Energy() // a collective: every rank
			if rank == 0 && step < 0 {
				e0 = kin + pot
			} else if rank == 0 {
				e1 = kin + pot
			}
		},
	}, runner.Attachments{})
	if err != nil {
		t.Fatal(err)
	}
	end := run.Merged()
	return drift{
		energy:   math.Abs((e1 - e0) / e0),
		momentum: end.Momentum().Sub(p0).Norm() / pScale,
		angular:  integrate.AngularMomentum(end).Sub(l0).Norm() / lScale,
	}
}

// Conservation at the operating point: energy, linear and angular
// momentum of 1000 Plummer bodies over 200 steps at the default
// atol 1e-4, uniform and block steps, np 1 and 4. This is the gate on
// the force error budget -- the MAC's truncation, and the round-off of
// the kernels' arithmetic under it. The bounds are twice the drifts
// the float64 kernels measured on this run (EXPERIMENTS.md "Float32
// lanes"), rounded up.
func TestConservationAtOperatingPoint(t *testing.T) {
	const n, steps, dt = 1000, 200, 2e-3
	for _, tc := range []struct {
		name  string
		np    int
		eta   float64
		bound drift
	}{
		{"uniform/np1", 1, 0, drift{energy: 1.2e-3, momentum: 8e-7, angular: 5e-7}},
		{"uniform/np4", 4, 0, drift{energy: 1.2e-3, momentum: 1e-6, angular: 6e-7}},
		{"block/np1", 1, 0.02, drift{energy: 7e-6, momentum: 8e-7, angular: 4e-7}},
		{"block/np4", 4, 0.02, drift{energy: 6e-6, momentum: 1e-6, angular: 6e-7}},
	} {
		d := conservationDrift(t, n, tc.np, steps, dt, tc.eta)
		t.Logf("%s: energy %.3g, momentum %.3g, angular momentum %.3g", tc.name, d.energy, d.momentum, d.angular)
		if d.energy > tc.bound.energy || d.momentum > tc.bound.momentum || d.angular > tc.bound.angular {
			t.Errorf("%s: drift %+v exceeds %+v", tc.name, d, tc.bound)
		}
	}
}
