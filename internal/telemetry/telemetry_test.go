package telemetry

import (
	"io"
	"log/slog"
	"reflect"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/integrate"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/trace"
)

// discard silences monitor logging in tests.
func discard() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// The telemetry-off cost model: a nil sampler's Contribute must be one
// branch and zero allocations, since every driver leaves the call in
// the step path unconditionally.
func TestContributeOffZeroAllocs(t *testing.T) {
	var s *Sampler
	rs := metrics.RankInput{
		Counters: diag.Counters{PP: 1000},
		StepNs:   12345,
		Sent:     msg.PhaseTraffic{Msgs: 10, Bytes: 1 << 20},
	}
	if allocs := testing.AllocsPerRun(200, func() {
		s.Contribute(0, rs)
	}); allocs != 0 {
		t.Fatalf("nil-sampler Contribute allocates %v per call, want 0", allocs)
	}
}

// rank builds a cumulative rank record the way the engines do.
func rank(pp uint64, stepNs int64, msgs, bytes uint64) metrics.RankInput {
	return metrics.RankInput{
		Counters: diag.Counters{PP: pp},
		StepNs:   stepNs,
		Sent:     msg.PhaseTraffic{Msgs: msgs, Bytes: bytes},
		Bodies:   100,
	}
}

// Contributions are cumulative; samples must carry per-step deltas,
// the slowest rank's wall-clock, and max/mean imbalance.
func TestSamplerDeltas(t *testing.T) {
	s := NewSampler(Config{NP: 2, Monitors: MonitorConfig{Log: discard()}})
	defer s.Close()

	s.Contribute(0, rank(100, 10e6, 5, 1000))
	s.Contribute(1, rank(50, 30e6, 3, 500))
	smp, ok := s.Last()
	if !ok {
		t.Fatal("no sample after both ranks contributed")
	}
	if smp.Step != 1 || smp.Interactions != 150 {
		t.Fatalf("sample 1 = step %d, %d interactions; want step 1, 150", smp.Step, smp.Interactions)
	}
	if smp.Flops != 150*diag.FlopsPerInteraction {
		t.Fatalf("flops = %d", smp.Flops)
	}
	if smp.Msgs != 8 || smp.Bytes != 1500 {
		t.Fatalf("traffic = %d msgs %d bytes, want 8/1500", smp.Msgs, smp.Bytes)
	}
	if smp.StepMs != 30 {
		t.Fatalf("StepMs = %g, want the slowest rank's 30", smp.StepMs)
	}
	// max/mean = 30 / ((10+30)/2) = 1.5
	if smp.Imbalance < 1.49 || smp.Imbalance > 1.51 {
		t.Fatalf("imbalance = %g, want 1.5", smp.Imbalance)
	}
	if smp.Bodies != 200 {
		t.Fatalf("bodies = %d", smp.Bodies)
	}

	// Second step: cumulative counters grow; the sample is the delta.
	s.Contribute(0, rank(300, 10e6, 9, 2000))
	s.Contribute(1, rank(80, 10e6, 5, 700))
	smp, _ = s.Last()
	if smp.Step != 2 || smp.Interactions != 230 {
		t.Fatalf("sample 2 = step %d, %d interactions; want step 2, 230 (delta)", smp.Step, smp.Interactions)
	}
	if smp.Msgs != 6 || smp.Bytes != 1200 {
		t.Fatalf("traffic delta = %d/%d, want 6/1200", smp.Msgs, smp.Bytes)
	}
	if smp.Imbalance != 1 {
		t.Fatalf("balanced step has imbalance %g, want 1", smp.Imbalance)
	}

	// Third step: 60 cells pushed across the ranks, 45 of them used;
	// the hit rate is this step's, not the run's.
	r0, r1 := rank(300, 10e6, 9, 2000), rank(80, 10e6, 5, 700)
	r0.Counters.Pushed, r0.Counters.PushUsed = 40, 30
	r1.Counters.Pushed, r1.Counters.PushUsed = 20, 15
	s.Contribute(0, r0)
	s.Contribute(1, r1)
	if smp, _ = s.Last(); smp.Pushed != 60 || smp.PushUsed != 45 || smp.PushHitRate != 0.75 {
		t.Fatalf("push %d used %d hit rate %g, want 60, 45, 0.75", smp.Pushed, smp.PushUsed, smp.PushHitRate)
	}
}

// The ring keeps the newest Capacity samples; Samples returns them
// oldest-first and honors the max limit.
func TestRingEviction(t *testing.T) {
	s := NewSampler(Config{NP: 1, Capacity: 4, Monitors: MonitorConfig{Log: discard()}})
	defer s.Close()
	for i := 1; i <= 6; i++ {
		s.Contribute(0, rank(uint64(i*10), 1e6, 0, 0))
	}
	all := s.Samples(0)
	if len(all) != 4 {
		t.Fatalf("ring holds %d samples, want 4", len(all))
	}
	if all[0].Step != 3 || all[3].Step != 6 {
		t.Fatalf("ring spans steps %d..%d, want 3..6 (oldest evicted)", all[0].Step, all[3].Step)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Step != all[i-1].Step+1 {
			t.Fatalf("samples out of order: %v", all)
		}
	}
	newest := s.Samples(2)
	if len(newest) != 2 || newest[0].Step != 5 || newest[1].Step != 6 {
		t.Fatalf("Samples(2) = steps %v, want [5 6]", newest)
	}
	last, _ := s.Last()
	if last.Step != 6 {
		t.Fatalf("Last = step %d, want 6", last.Step)
	}
}

// energyRank contributes a fixed-energy sample.
func energyRank(energy float64) metrics.RankInput {
	return metrics.RankInput{HasEnergy: true, Kinetic: 0, Potential: energy, StepNs: 1e6}
}

// The energy-drift monitor is edge-triggered with re-arm: one critical
// event per excursion, however long it lasts.
func TestEnergyDriftMonitorEdgeTriggered(t *testing.T) {
	s := NewSampler(Config{NP: 1, Monitors: MonitorConfig{
		EnergyDriftTol: 0.01, Log: discard(),
	}})
	defer s.Close()

	s.Contribute(0, energyRank(-1.0)) // E0 baseline
	s.Contribute(0, energyRank(-1.0))
	if evs := s.Events(); len(evs) != 0 {
		t.Fatalf("events on steady energy: %+v", evs)
	}

	s.Contribute(0, energyRank(-1.05)) // 5% drift
	s.Contribute(0, energyRank(-1.05)) // excursion continues
	evs := s.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events for one excursion, want 1 (edge-triggered)", len(evs))
	}
	ev := evs[0]
	if ev.Monitor != MonitorEnergyDrift || ev.Severity != SeverityCritical {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Value > -0.049 || ev.Value < -0.051 {
		t.Fatalf("drift value = %g, want -0.05", ev.Value)
	}

	s.Contribute(0, energyRank(-1.0))  // back in tolerance: re-arms
	s.Contribute(0, energyRank(-1.05)) // second excursion
	if evs := s.Events(); len(evs) != 2 {
		t.Fatalf("%d events after a second excursion, want 2", len(evs))
	}
}

// Imbalance must persist for ImbalanceRuns consecutive samples before
// firing: one slow step is scheduling noise.
func TestImbalanceDebounce(t *testing.T) {
	s := NewSampler(Config{NP: 2, Monitors: MonitorConfig{
		ImbalanceMax: 1.5, ImbalanceRuns: 3, Log: discard(),
	}})
	defer s.Close()

	skewed := func() {
		s.Contribute(0, metrics.RankInput{StepNs: 1e6})
		s.Contribute(1, metrics.RankInput{StepNs: 9e6}) // max/mean = 1.8
	}
	skewed()
	skewed()
	if evs := s.Events(); len(evs) != 0 {
		t.Fatalf("fired after %d skewed samples, want debounce of 3", 2)
	}
	skewed()
	evs := s.Events()
	if len(evs) != 1 || evs[0].Monitor != MonitorImbalance || evs[0].Severity != SeverityWarn {
		t.Fatalf("events = %+v, want one load_imbalance warn", evs)
	}

	// A balanced sample resets the streak; two more skewed ones stay
	// below the debounce.
	s.Contribute(0, metrics.RankInput{StepNs: 5e6})
	s.Contribute(1, metrics.RankInput{StepNs: 5e6})
	skewed()
	skewed()
	if evs := s.Events(); len(evs) != 1 {
		t.Fatalf("debounce did not reset: %d events", len(evs))
	}
}

// Every fired event is pinned onto all rank trace timelines as a
// "health.<monitor>" instant.
func TestHealthEventMarksTrace(t *testing.T) {
	run := trace.NewRun(2)
	s := NewSampler(Config{NP: 1, Trace: run, Monitors: MonitorConfig{
		EnergyDriftTol: 0.01, Log: discard(),
	}})
	defer s.Close()

	s.Contribute(0, energyRank(-1.0))
	s.Contribute(0, energyRank(-1.05))
	evs := s.Events()
	if len(evs) != 1 || evs[0].Monitor != MonitorEnergyDrift {
		t.Fatalf("events = %+v, want one energy_drift", evs)
	}

	marks := 0
	for _, ev := range run.Events() {
		if ev.Kind == trace.KindInstant && ev.Name == "health."+MonitorEnergyDrift {
			marks++
		}
	}
	if marks != run.Size() {
		t.Fatalf("%d trace marks, want one per rank (%d)", marks, run.Size())
	}
}

// The no-progress monitor fires when samples stop arriving, re-arms on
// the next sample, and fires again on the next flatline.
func TestNoProgressMonitor(t *testing.T) {
	s := NewSampler(Config{NP: 1, Monitors: MonitorConfig{
		NoProgress: 30 * time.Millisecond, Log: discard(),
	}})
	defer s.Close()

	waitEvents := func(n int) []HealthEvent {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if evs := s.Events(); len(evs) >= n {
				return evs
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("no-progress monitor never reached %d events: %+v", n, s.Events())
		return nil
	}

	evs := waitEvents(1)
	if evs[0].Monitor != MonitorNoProgress || evs[0].Severity != SeverityCritical {
		t.Fatalf("event = %+v", evs[0])
	}

	// A sample is progress: the monitor re-arms, then trips again when
	// the flatline resumes.
	s.Contribute(0, rank(10, 1e6, 0, 0))
	evs = waitEvents(2)
	if evs[1].Monitor != MonitorNoProgress {
		t.Fatalf("second event = %+v", evs[1])
	}
}

// LiveReport is metrics.BuildReport over the ranks' latest records: the
// code and the data of the exit report, so a mid-run /report carries the
// stepping section and the phases in first-start order.
func TestLiveReport(t *testing.T) {
	s := NewSampler(Config{NP: 2, Command: "bench", Monitors: MonitorConfig{Log: discard()}})
	defer s.Close()

	sec := time.Second
	rs0 := rank(100, 10e6, 5, 1000)
	rs0.Phases = []diag.Phase{{Name: "walk", D: 2 * sec}, {Name: "branches", D: sec}}
	rs0.RemoteCells = 3
	rs0.Stepping = metrics.Stepping{Mode: "block", Eta: 0.02, Stats: integrate.Stats{
		SubSteps: 4, ActiveSinks: 25, TotalSinks: 100, Occupancy: []uint64{90, 10}}}
	rs1 := rank(60, 10e6, 7, 2000)
	rs1.Phases = []diag.Phase{{Name: "walk", D: 5 * sec / 2}}
	rs1.Stepping = rs0.Stepping
	s.Contribute(0, rank(1, 1, 1, 1)) // an earlier step: the report is of the latest
	s.Contribute(1, rank(1, 1, 1, 1))
	s.Contribute(0, rs0)
	s.Contribute(1, rs1)

	rep := s.LiveReport()
	if rep == nil {
		t.Fatal("nil live report")
	}
	want := metrics.BuildReport("bench", rep.WallSeconds, []metrics.RankInput{rs0, rs1}, nil, nil)
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("live report\n%+v\nis not BuildReport over the same records\n%+v", rep, want)
	}
	if rep.NP != 2 || rep.Bodies != 200 || rep.Totals.Interactions != 160 || rep.Totals.Msgs != 12 || rep.Totals.Bytes != 3000 {
		t.Fatalf("report np=%d bodies=%d totals=%+v", rep.NP, rep.Bodies, rep.Totals)
	}
	if rep.Stepping == nil || rep.Stepping.ActiveFraction != 0.25 || rep.Stepping.RungOccupancy[0] != 180 {
		t.Fatalf("stepping = %+v", rep.Stepping)
	}
	if len(rep.Phases) != 2 || rep.Phases[0].Phase != "walk" || rep.Phases[1].Phase != "branches" {
		t.Fatalf("phase balance = %+v, want walk then branches (first-start order, not sorted)", rep.Phases)
	}
	if smp, _ := s.Last(); smp.ActiveFraction != 0.25 {
		t.Fatalf("sample active fraction = %g, want 50 of 200 sinks", smp.ActiveFraction)
	}

	var nils *Sampler
	if nils.LiveReport() != nil {
		t.Fatal("nil sampler produced a report")
	}
}
