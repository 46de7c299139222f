package metrics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/grav"
)

func TestRooflineAccounting(t *testing.T) {
	// 1e6 interactions at 38 flops and 8 bytes each over 0.5 s.
	r := NewRoofline(38e6, 8e6, 0.5)
	if got, want := r.Intensity, 38.0/8.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("intensity = %g, want %g", got, want)
	}
	if got, want := r.AchievedFlops, 76e6; math.Abs(got-want) > 1 {
		t.Errorf("achieved = %g, want %g", got, want)
	}
}

func TestRooflineCalibrateBounds(t *testing.T) {
	// Intensity 4.75; ridge at peak/bw.
	r := NewRoofline(38e6, 8e6, 0.5)

	// Low bandwidth: ridge 10 > intensity 4.75 -> memory-bound, the
	// ceiling is intensity*bw.
	r.Calibrate(100e9, 10e9)
	if r.Bound != "memory" {
		t.Errorf("bound = %q, want memory (ridge %g)", r.Bound, r.RidgeIntensity)
	}
	if want := 4.75 * 10e9; math.Abs(r.Ceiling-want) > 1 {
		t.Errorf("ceiling = %g, want %g", r.Ceiling, want)
	}

	// High bandwidth: ridge 1 < intensity -> compute-bound, ceiling is
	// the flop peak, utilization = achieved/peak.
	r.Calibrate(100e9, 100e9)
	if r.Bound != "compute" {
		t.Errorf("bound = %q, want compute", r.Bound)
	}
	if math.Abs(r.Ceiling-100e9) > 1 {
		t.Errorf("ceiling = %g, want 100e9", r.Ceiling)
	}
	if want := 76e6 / 100e9; math.Abs(r.Utilization-want) > 1e-15 {
		t.Errorf("utilization = %g, want %g", r.Utilization, want)
	}
}

func TestReportCarriesRoofline(t *testing.T) {
	in := []RankInput{{Counters: diag.Counters{PP: 1000, PC: 500, QuadPC: 500}}}
	rep := BuildReport("test", 2.0, in, nil, nil)
	rf := rep.Roofline
	if rf == nil {
		t.Fatal("BuildReport left Roofline nil")
	}
	wantFlops := uint64(1500*diag.FlopsPerInteraction + 500*diag.FlopsPerQuadrupole)
	if rf.KernelFlops != wantFlops {
		t.Errorf("kernel flops = %d, want %d", rf.KernelFlops, wantFlops)
	}
	wantBytes := uint64(1500*diag.BytesPerSourceRow+500*diag.BytesPerQuadRow) / uint64(grav.Lanes())
	if rf.KernelBytes != wantBytes {
		t.Errorf("kernel bytes = %d, want %d at %d lanes", rf.KernelBytes, wantBytes, grav.Lanes())
	}
	if rf.Kernel != grav.KernelPath() {
		t.Errorf("kernel = %q, want %q", rf.Kernel, grav.KernelPath())
	}

	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "roofline:") {
		t.Errorf("Render output missing roofline section:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "intensity") {
		t.Errorf("Render output missing intensity line")
	}
}

func TestMeasurePeaksArePositive(t *testing.T) {
	if testing.Short() {
		t.Skip("host measurement in -short mode")
	}
	if f := MeasurePeakFlops(); f <= 0 {
		t.Errorf("MeasurePeakFlops = %g", f)
	}
	if b := MeasurePeakBandwidth(); b <= 0 {
		t.Errorf("MeasurePeakBandwidth = %g", b)
	}
}
