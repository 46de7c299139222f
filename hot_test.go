package hot

import (
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/msg"
)

func TestDefaultsValidate(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Defaults()
	bad.MAC = BarnesHut
	bad.Theta = -1
	if bad.Validate() == nil {
		t.Fatal("negative theta accepted")
	}
	bad2 := Defaults()
	bad2.AccelTol = 0
	if bad2.Validate() == nil {
		t.Fatal("zero AccelTol accepted")
	}
	bad3 := Defaults()
	bad3.Eps = -1
	if bad3.Validate() == nil {
		t.Fatal("negative eps accepted")
	}
}

func TestSerialQuickstart(t *testing.T) {
	bodies := PlummerSphere(2000, 1, 1)
	sim, err := NewSerial(bodies, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	info0 := sim.Info()
	if info0.Interactions == 0 || info0.Flops == 0 || info0.Cells == 0 {
		t.Fatalf("empty info: %+v", info0)
	}
	e0 := info0.Kinetic + info0.Potential
	var last StepInfo
	for i := 0; i < 10; i++ {
		last = sim.Step(1e-3)
	}
	e1 := last.Kinetic + last.Potential
	if math.Abs((e1-e0)/e0) > 1e-2 {
		t.Fatalf("energy drift %v over 10 steps", (e1-e0)/e0)
	}
	if sim.N() != 2000 {
		t.Fatalf("N = %d", sim.N())
	}
	// A virialized Plummer sphere stays bound: kinetic ~ -pot/2.
	if last.Kinetic <= 0 || last.Potential >= 0 {
		t.Fatalf("implausible energies: %+v", last)
	}
}

func TestSerialErrors(t *testing.T) {
	if _, err := NewSerial(nil, Defaults()); err == nil {
		t.Fatal("empty body list accepted")
	}
	cfg := Defaults()
	cfg.AccelTol = -1
	if _, err := NewSerial(PlummerSphere(10, 1, 1), cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestParallelMatchesSerialPhysics(t *testing.T) {
	bodies := PlummerSphere(800, 1, 2)
	cfg := Defaults()
	cfg.AccelTol = 1e-5

	res, err := RunParallel(ParallelConfig{Config: cfg, Procs: 4, Steps: 5, Dt: 1e-3}, bodies, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bodies) != len(bodies) {
		t.Fatalf("body count %d", len(res.Bodies))
	}
	if res.Interactions == 0 || res.RemoteCells == 0 || res.MaxBytes == 0 {
		t.Fatalf("no parallel activity recorded: %+v", res)
	}

	sim, _ := NewSerial(bodies, cfg)
	for i := 0; i < 5; i++ {
		sim.Step(1e-3)
	}
	serial := sim.Bodies()
	// One rank is the same engine as Serial: bit for bit.
	one, err := RunParallel(ParallelConfig{Config: cfg, Procs: 1, Steps: 5, Dt: 1e-3}, bodies, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if one.Bodies[i] != serial[i] {
			t.Fatalf("body %d: Procs 1 %+v, Serial %+v", i, one.Bodies[i], serial[i])
		}
	}
	// Trajectories agree closely over a short integration.
	var rms, scale float64
	for i := range serial {
		for k := 0; k < 3; k++ {
			d := serial[i].Pos[k] - res.Bodies[i].Pos[k]
			rms += d * d
			scale += serial[i].Pos[k] * serial[i].Pos[k]
		}
	}
	if math.Sqrt(rms/scale) > 1e-3 {
		t.Fatalf("parallel trajectories deviate: rel RMS %g", math.Sqrt(rms/scale))
	}
}

func TestParallelErrors(t *testing.T) {
	if _, err := RunParallel(ParallelConfig{Config: Defaults(), Procs: 0}, PlummerSphere(10, 1, 1), nil); err == nil {
		t.Fatal("procs=0 accepted")
	}
	if _, err := RunParallel(ParallelConfig{Config: Defaults(), Procs: 2}, nil, nil); err == nil {
		t.Fatal("no bodies accepted")
	}
}

// A rank failure is RunParallel's error: a panic in onStep (here on
// step 1) used to be re-raised on the caller through msg.Run.
func TestParallelRankFailureIsAnError(t *testing.T) {
	res, err := RunParallel(ParallelConfig{Config: Defaults(), Procs: 3, Steps: 4, Dt: 1e-4},
		ColdSphere(200, 1, 3), func(step int, _ StepInfo) {
			if step == 1 {
				panic("observer failed")
			}
		})
	var werr *msg.WorldError
	if !errors.As(err, &werr) || werr.Rank != 0 || !strings.Contains(err.Error(), "observer failed") {
		t.Fatalf("err = %v, want a wrapped *msg.WorldError from rank 0 naming the panic", err)
	}
	if res.Bodies != nil || res.Interactions != 0 {
		t.Fatalf("a failed run returned a result: %+v", res)
	}
}

func TestOnStepCallback(t *testing.T) {
	bodies := ColdSphere(200, 1, 3)
	calls := 0
	_, err := RunParallel(ParallelConfig{Config: Defaults(), Procs: 2, Steps: 3, Dt: 1e-4},
		bodies, func(step int, info StepInfo) {
			if step != calls {
				t.Errorf("step %d out of order", step)
			}
			if info.Interactions == 0 {
				t.Error("empty step info")
			}
			calls++
		})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("callback called %d times", calls)
	}
}

func TestDirectForcesReference(t *testing.T) {
	bodies := TwoBodyOrbit(1, 1, 2)
	acc, info := DirectForces(bodies, 0)
	if info.Interactions != 2 {
		t.Fatalf("interactions = %d", info.Interactions)
	}
	// Mutual attraction along x with magnitude m/d^2 = 1/4.
	if math.Abs(acc[0][0]-0.25) > 1e-12 || math.Abs(acc[1][0]+0.25) > 1e-12 {
		t.Fatalf("acc = %v", acc)
	}
}

// The serial treecode's forces against the exact O(N^2) sum, body by
// body: RMS of |a_tree - a_direct| over RMS |a_direct|.
func TestTreecodeVsDirectAccuracy(t *testing.T) {
	bodies := PlummerSphere(1000, 1, 4)
	cfg := Defaults()
	cfg.AccelTol = 1e-6
	sim, err := NewSerial(bodies, cfg)
	if err != nil {
		t.Fatal(err)
	}
	accD, infoD := DirectForces(bodies, cfg.Eps)
	// The treecode must do far fewer interactions at equal N.
	if infoT := sim.Info(); infoT.Interactions >= infoD.Interactions {
		t.Fatalf("treecode interactions %d >= direct %d", infoT.Interactions, infoD.Interactions)
	}
	sys := sim.e.Sys
	var num, den float64
	for i := range sys.Acc {
		d := accD[sys.ID[i]]
		a := sys.Acc[i]
		dx, dy, dz := a.X-d[0], a.Y-d[1], a.Z-d[2]
		num += dx*dx + dy*dy + dz*dz
		den += d[0]*d[0] + d[1]*d[1] + d[2]*d[2]
	}
	rel := math.Sqrt(num / den)
	t.Logf("RMS-relative force error %.3g", rel)
	if rel > 4e-7 { // measured 1.65e-7
		t.Fatalf("treecode forces off the direct sum by %g RMS-relative", rel)
	}
}

func TestFindHalosFacade(t *testing.T) {
	// Two compact clusters, far apart.
	var bodies []Body
	a := PlummerSphere(200, 0.02, 5)
	b := PlummerSphere(200, 0.02, 6)
	for i := range a {
		a[i].Pos[0] -= 3
		bodies = append(bodies, a[i])
	}
	for i := range b {
		b[i].Pos[0] += 3
		bodies = append(bodies, b[i])
	}
	halos := FindHalos(bodies, 0.05, 20)
	if len(halos) != 2 {
		t.Fatalf("found %d halos, want 2", len(halos))
	}
	for _, h := range halos {
		if math.Abs(math.Abs(h.Center[0])-3) > 0.3 {
			t.Fatalf("halo center %v", h.Center)
		}
		if h.HalfMassRadius <= 0 {
			t.Fatal("no half-mass radius")
		}
		// Member indices must reference the caller's slice.
		for _, m := range h.Members {
			if m < 0 || m >= len(bodies) {
				t.Fatalf("member index %d out of range", m)
			}
		}
	}
	// Clustered bodies correlate at small separations.
	r, xi := Correlation(bodies, 0.005, 1.0, 6)
	if len(r) != 6 || xi[0] <= 1 {
		t.Fatalf("xi(small r) = %v, want strongly positive", xi)
	}
}

// Long-term quality: a virialized Plummer sphere evolved for a
// substantial fraction of a crossing time must keep its Lagrangian
// radii (10/50/90% mass shells) steady -- the classic stability test
// of a collisionless N-body code.
func TestPlummerLagrangianRadiiStable(t *testing.T) {
	if testing.Short() {
		t.Skip("long physics test")
	}
	bodies := PlummerSphere(2000, 1.0, 8)
	cfg := Defaults()
	res, err := RunParallel(ParallelConfig{Config: cfg, Procs: 4, Steps: 60, Dt: 5e-3}, bodies, nil)
	if err != nil {
		t.Fatal(err)
	}
	r0 := lagrangianRadii(bodies)
	r1 := lagrangianRadii(res.Bodies)
	for k, frac := range []float64{0.1, 0.5, 0.9} {
		drift := math.Abs(r1[k]-r0[k]) / r0[k]
		if drift > 0.15 {
			t.Errorf("%.0f%% Lagrangian radius drifted %.1f%% (%.3f -> %.3f)",
				frac*100, drift*100, r0[k], r1[k])
		}
	}
}

func lagrangianRadii(bodies []Body) [3]float64 {
	// Center of mass.
	var cx, cy, cz, m float64
	for _, b := range bodies {
		cx += b.Pos[0] * b.Mass
		cy += b.Pos[1] * b.Mass
		cz += b.Pos[2] * b.Mass
		m += b.Mass
	}
	cx, cy, cz = cx/m, cy/m, cz/m
	rs := make([]float64, len(bodies))
	for i, b := range bodies {
		dx, dy, dz := b.Pos[0]-cx, b.Pos[1]-cy, b.Pos[2]-cz
		rs[i] = math.Sqrt(dx*dx + dy*dy + dz*dz)
	}
	sort.Float64s(rs)
	return [3]float64{
		rs[len(rs)/10],
		rs[len(rs)/2],
		rs[len(rs)*9/10],
	}
}
