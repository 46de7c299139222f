// RunReport: the one machine-readable artifact every simulation
// command can emit (-metrics run.json). It is the paper's performance
// tables as data -- interaction counts and the 38-flop accounting,
// per-phase wall-clock with load-balance statistics across ranks, the
// NxN communication matrix, the push's hit rate and the collectives
// of a step -- assembled from the same diag.Counters, diag.Timer and
// msg traffic records the engines already keep, so the report always
// agrees with the counters byte for byte. cmd/perfreport
// renders one (or diffs two) as paper-style tables.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/diag"
	"repro/internal/grav"
	"repro/internal/integrate"
	"repro/internal/msg"
	"repro/internal/vec"
)

// ReportSchema versions the RunReport JSON layout.
const ReportSchema = 1

// Constants records the flop-accounting constants in force when the
// report was written, next to the numbers they produced.
type Constants struct {
	FlopsPerInteraction    int `json:"flops_per_interaction"`
	FlopsPerQuadrupole     int `json:"flops_per_quadrupole"`
	FlopsPerVortexInteract int `json:"flops_per_vortex_interaction"`
	FlopsPerSPHPair        int `json:"flops_per_sph_pair"`
}

// Totals is the run-wide summary.
type Totals struct {
	Counters     diag.Counters `json:"counters"`
	Interactions uint64        `json:"interactions"`
	Flops        uint64        `json:"flops"`
	// FlopsRate is Flops over the host wall-clock, in flops/s.
	FlopsRate float64 `json:"flops_rate"`
	// PushHitRate is Counters.PushUsed / Counters.Pushed: the share of
	// the cells the owners pushed that a walk went on to resolve. The
	// rest is what the conservative test sent in vain.
	PushHitRate float64 `json:"push_hit_rate"`
	Msgs        uint64  `json:"msgs"`
	Bytes       uint64  `json:"bytes"`
	// CollectivesPerStep is the most collectives any rank entered in
	// its last step (RankReport.Collectives).
	CollectivesPerStep int `json:"collectives_per_step"`
	// WalkSample* are what WalkSampleBodies of the final bodies are
	// charged by the original algorithm, one walk per body, and by the
	// grouped walk that ran (runner.Result.PerBodyWalk). FlopsRate times
	// PerBody/Grouped is the rate that longer lists cannot raise.
	WalkSamplePerBody uint64 `json:"walk_sample_per_body,omitempty"`
	WalkSampleGrouped uint64 `json:"walk_sample_grouped,omitempty"`
	WalkSampleBodies  int    `json:"walk_sample_bodies,omitempty"`
}

// RankReport is one rank's share.
type RankReport struct {
	Rank         int                         `json:"rank"`
	Counters     diag.Counters               `json:"counters"`
	Flops        uint64                      `json:"flops"`
	PhaseSeconds map[string]float64          `json:"phase_seconds,omitempty"`
	Traffic      map[string]msg.PhaseTraffic `json:"traffic,omitempty"`
	SentMsgs     uint64                      `json:"sent_msgs"`
	SentBytes    uint64                      `json:"sent_bytes"`
	RemoteCells  int                         `json:"remote_cells"`
	// SplitRounds is the number of collectives the rank's last
	// decomposition spent finding the splitters (domain.Stats.Rounds).
	SplitRounds int `json:"split_rounds"`
	// Relocated is how many of the rank's decompositions over the run
	// found the key domain they predicted was not the bodies' and keyed
	// again (domain.Stats.Relocated): each cost one collective more.
	Relocated int `json:"relocated"`
	// BodyBatches is the number of body batches the rank sent in its
	// last decomposition's exchange (domain.Stats.Batches): np-1 when
	// every pair exchanged, fewer when the splitter windows planned it.
	BodyBatches int `json:"body_batches"`
	// Collectives is how many collectives the rank entered in its last
	// step (the first evaluation when the run took none), counted by
	// msg.Comm.Collectives: an allreduce or an allgather is one. Under
	// latency a step costs about this many waits on the slowest message.
	Collectives int `json:"collectives_per_step"`
}

// PhaseBalance is the load-balance statistics of one phase's
// wall-clock seconds across ranks.
type PhaseBalance struct {
	Phase string `json:"phase"`
	diag.Balance
}

// RunReport is the emitted document.
type RunReport struct {
	Schema      int            `json:"schema"`
	Command     string         `json:"command"`
	NP          int            `json:"np"`
	Bodies      int            `json:"bodies"`
	WallSeconds float64        `json:"wall_seconds"`
	Constants   Constants      `json:"flop_constants"`
	Totals      Totals         `json:"totals"`
	Ranks       []RankReport   `json:"ranks"`
	Phases      []PhaseBalance `json:"phase_balance,omitempty"`
	// Roofline places the run's kernels on a roofline plot; the
	// accounting half is always filled, the machine ceilings only when
	// the renderer calibrates (perfreport -roofline).
	Roofline *Roofline `json:"roofline,omitempty"`
	// Stepping aggregates the per-rank time-integration scheduler
	// accounting (present when the drivers supplied it).
	Stepping *SteppingStats `json:"stepping,omitempty"`
	// TraceDropped counts trace events discarded by full rank rings
	// (trace.Run.Dropped at report time); non-zero means the exported
	// Chrome timeline has holes and should not be read as complete
	// evidence.
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
	// CommMatrix*: row = sending rank, column = destination rank.
	CommMatrixMsgs  [][]uint64                   `json:"comm_matrix_msgs,omitempty"`
	CommMatrixBytes [][]uint64                   `json:"comm_matrix_bytes,omitempty"`
	Metrics         map[string]float64           `json:"metrics,omitempty"`
	Histograms      map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Registry names under which a chaos run records what its fault
// injector actually did (msg.InjectorStats), so a RunReport from a
// chaos soak documents its own perturbation.
const (
	ChaosDelays   = "chaos_delays"
	ChaosReorders = "chaos_reorders"
	ChaosStalls   = "chaos_stalls"
	ChaosCrashes  = "chaos_crashes"
)

// SteppingStats is the report's time-integration section: how many
// (sub-)steps ran, how many force evaluations were full vs partial,
// and what fraction of the bodies were due a force at each.
// ActiveSinks/TotalSinks is that active fraction, in bodies (a "sink"
// here is one, integrate.Stats' word). Its inverse bounds the saving of
// block timesteps over uniform stepping at the finest occupied rung: a
// partial evaluation computes the whole of every walk group, a sink
// cell of up to 64 bodies, that holds an active one.
// BuildReport sums it from the ranks' integrate.Stats.
type SteppingStats struct {
	// Mode is "uniform" or "block"; Eta the block criterion scale.
	Mode           string  `json:"mode"`
	Eta            float64 `json:"eta,omitempty"`
	BigSteps       uint64  `json:"big_steps"`
	SubSteps       uint64  `json:"sub_steps"`
	FullEvals      uint64  `json:"full_evals"`
	PartialEvals   uint64  `json:"partial_evals"`
	ActiveSinks    uint64  `json:"active_sinks"`
	TotalSinks     uint64  `json:"total_sinks"`
	ActiveFraction float64 `json:"active_fraction"`
	// RungOccupancy[r] counts bodies assigned rung r at the
	// synchronization points, summed over the run.
	RungOccupancy []uint64 `json:"rung_occupancy,omitempty"`
}

// MaxRungs bounds the current-rung histogram of a rank record and of
// every /series sample (integrate.DefaultMaxRung is 6; 16 leaves
// headroom without growing samples past a cache line or two).
const MaxRungs = 16

// Stepping is a rank's time-integration scheduler as its engine
// describes it. Mode is "uniform" or "block", and empty for an engine
// whose steps no scheduler accounts for (SPH, vortex): such a run's
// report has no stepping section.
type Stepping struct {
	Mode string
	Eta  float64
	// Stats is cumulative; its Occupancy is the record's own copy.
	integrate.Stats
}

// RankInput is one rank's state as its engine describes it (the
// engine's Record method), and the only thing that crosses from an
// engine to a reader: BuildReport makes the RunReport of a slice of
// them, telemetry.Sampler takes one per rank per evaluation for /series
// and builds the live /report from the same slice, and the drivers'
// epilogues print from it. It is a value -- no timer, no pointer into a
// running engine -- so whoever holds one may read it from any goroutine.
// All totals are cumulative since the start of the run. To add a
// per-rank number, add it here (DESIGN.md "Observability" has the four
// places it then goes).
type RankInput struct {
	Counters diag.Counters
	// Phases is the banked time of the engine's phase clock, then of its
	// sub-phase clock ("treebuild/sort" nests inside treebuild), each in
	// first-start order.
	Phases []diag.Phase
	// RemoteCells is the cells imported since the engine's last
	// exchange; SplitRounds the collectives its last decomposition
	// spent finding the splitters (domain.Stats.Rounds),
	// Relocated its decompositions whose predicted key domain missed
	// (domain.Stats.Relocated; cumulative) and BodyBatches the body
	// batches it sent (domain.Stats.Batches).
	RemoteCells int
	SplitRounds int
	Relocated   int
	BodyBatches int
	// Collectives is the msg.Comm.Collectives delta of the step just
	// finished and StepNs the rank's own wall clock for it; whoever
	// drives the steps fills both in (internal/runner).
	Collectives int
	StepNs      int64
	// Sent is the rank's cumulative outbound traffic, Bodies its current
	// local body count.
	Sent   msg.PhaseTraffic
	Bodies int
	// HasEnergy marks Kinetic/Potential/Momentum, the rank's partial
	// sums, as meaningful (the gravity and SPH engines set it; vortex
	// dynamics has no softened potential to sum, so its drift would be
	// noise).
	HasEnergy bool
	Kinetic   float64
	Potential float64
	Momentum  vec.V3
	// Stepping is the scheduler accounting, Rungs the rank's current
	// rung occupancy (not cumulative).
	Stepping Stepping
	Rungs    [MaxRungs]uint64
}

// BuildReport assembles a RunReport from the ranks' records, the
// message world's traffic records (nil mid-run and for serial runs: no
// per-phase traffic, no comm matrix), and an optional registry of extra
// metrics. wall is the host wall-clock of the instrumented region in
// seconds.
func BuildReport(command string, wall float64, ranks []RankInput, w *msg.World, reg *Registry) *RunReport {
	rep := &RunReport{
		Schema:      ReportSchema,
		Command:     command,
		NP:          len(ranks),
		WallSeconds: wall,
		Constants: Constants{
			FlopsPerInteraction:    diag.FlopsPerInteraction,
			FlopsPerQuadrupole:     diag.FlopsPerQuadrupole,
			FlopsPerVortexInteract: diag.FlopsPerVortexInteract,
			FlopsPerSPHPair:        diag.FlopsPerSPHPair,
		},
		Metrics:    reg.Values(),
		Histograms: reg.Snapshots(),
	}

	phaseOrder := []string{}
	phaseSeen := map[string]bool{}
	for r, in := range ranks {
		rr := RankReport{
			Rank:        r,
			Counters:    in.Counters,
			Flops:       in.Counters.Flops(),
			SentMsgs:    in.Sent.Msgs,
			SentBytes:   in.Sent.Bytes,
			RemoteCells: in.RemoteCells,
			SplitRounds: in.SplitRounds,
			Relocated:   in.Relocated,
			BodyBatches: in.BodyBatches,
			Collectives: in.Collectives,
		}
		if len(in.Phases) > 0 {
			rr.PhaseSeconds = make(map[string]float64, len(in.Phases))
		}
		for _, ph := range in.Phases {
			rr.PhaseSeconds[ph.Name] = ph.D.Seconds()
			if !phaseSeen[ph.Name] {
				phaseSeen[ph.Name] = true
				phaseOrder = append(phaseOrder, ph.Name)
			}
		}
		if w != nil {
			rr.Traffic = map[string]msg.PhaseTraffic{}
			for ph, pt := range w.RankTraffic(r).Phases {
				rr.Traffic[ph] = *pt
			}
		}
		rep.Bodies += in.Bodies
		rep.Totals.Counters.Add(in.Counters)
		rep.Totals.Msgs += in.Sent.Msgs
		rep.Totals.Bytes += in.Sent.Bytes
		rep.Totals.CollectivesPerStep = max(rep.Totals.CollectivesPerStep, in.Collectives)
		rep.Ranks = append(rep.Ranks, rr)
		if s := in.Stepping; s.Mode != "" {
			if rep.Stepping == nil {
				rep.Stepping = &SteppingStats{Mode: s.Mode, Eta: s.Eta}
			}
			st := rep.Stepping
			// Steps and evaluations are collective (every rank runs the
			// same schedule); sinks and occupancy are per-rank shares.
			st.BigSteps, st.SubSteps = s.BigSteps, s.SubSteps
			st.FullEvals, st.PartialEvals = s.FullEvals, s.PartialEvals
			st.ActiveSinks += s.ActiveSinks
			st.TotalSinks += s.TotalSinks
			for len(st.RungOccupancy) < len(s.Occupancy) {
				st.RungOccupancy = append(st.RungOccupancy, 0)
			}
			for r, n := range s.Occupancy {
				st.RungOccupancy[r] += n
			}
		}
	}
	if st := rep.Stepping; st != nil && st.TotalSinks > 0 {
		st.ActiveFraction = float64(st.ActiveSinks) / float64(st.TotalSinks)
	}
	rep.Totals.Interactions = rep.Totals.Counters.Interactions()
	rep.Totals.Flops = rep.Totals.Counters.Flops()
	rep.Totals.PushHitRate = rep.Totals.Counters.PushHitRate()
	if wall > 0 {
		rep.Totals.FlopsRate = float64(rep.Totals.Flops) / wall
	}
	c, lanes := &rep.Totals.Counters, grav.Lanes()
	rep.Roofline = NewRoofline(rep.Totals.Flops, c.KernelBytes(lanes), wall)
	rep.Roofline.Kernel, rep.Roofline.Block = grav.KernelPath(), grav.KernelBlock()
	rep.Roofline.ExecutedFlops = c.ExecutedFlops()
	if n := rep.Totals.Interactions; n > 0 {
		rep.Roofline.ExecutedPerInteraction = float64(c.ExecutedGravityFlops()) / float64(n)
	}
	if w != nil {
		rep.CommMatrixMsgs, rep.CommMatrixBytes = w.CommMatrix()
	}

	for _, ph := range phaseOrder {
		vals := make([]float64, 0, len(ranks))
		for _, rr := range rep.Ranks {
			vals = append(vals, rr.PhaseSeconds[ph])
		}
		rep.Phases = append(rep.Phases, PhaseBalance{Phase: ph, Balance: diag.BalanceOf(vals)})
	}
	return rep
}

// WriteFile writes the report as indented JSON.
func (r *RunReport) WriteFile(path string) error {
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// ReadReport loads a RunReport from a JSON file.
func ReadReport(path string) (*RunReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r RunReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Render writes the report as the paper-style tables: headline rate,
// per-rank work and traffic, per-phase balance, the comm matrix, and
// histogram percentiles.
func (r *RunReport) Render(w io.Writer) {
	fmt.Fprintf(w, "RunReport: %s  np=%d  bodies=%d  wall=%.3fs\n",
		r.Command, r.NP, r.Bodies, r.WallSeconds)
	fmt.Fprintf(w, "interactions: %d (pp %d, pc %d, quad %d)\n",
		r.Totals.Interactions, r.Totals.Counters.PP, r.Totals.Counters.PC, r.Totals.Counters.QuadPC)
	fmt.Fprintf(w, "flops: %d at %d/interaction -> %s\n",
		r.Totals.Flops, r.Constants.FlopsPerInteraction, diag.Rate(r.Totals.Flops, r.WallSeconds))
	if t := r.Totals; t.WalkSampleGrouped > 0 {
		n, per, grp := float64(t.WalkSampleBodies), float64(t.WalkSamplePerBody), float64(t.WalkSampleGrouped)
		fmt.Fprintf(w, "per-body walk: %.1f interactions/body where the grouped walk counts %.1f (sampled n=%d) -> %s\n",
			per/n, grp/n, t.WalkSampleBodies, diag.Rate(uint64(t.FlopsRate*per/grp), 1))
	}
	if c := r.Totals.Counters; c.Pushed > 0 {
		fmt.Fprintf(w, "push: %d cells, %d used (hit rate %.1f%%, %d sent in vain)\n",
			c.Pushed, c.PushUsed, r.Totals.PushHitRate*100, c.Pushed-c.PushUsed)
	}
	if r.Totals.Msgs > 0 {
		fmt.Fprintf(w, "traffic: %d msgs, %.3f MB total\n", r.Totals.Msgs, float64(r.Totals.Bytes)/1e6)
	}
	if n := r.Totals.CollectivesPerStep; n > 0 {
		fmt.Fprintf(w, "collectives: %d in the last step (most on any rank; an allreduce or allgather is one)\n", n)
	}
	if r.TraceDropped > 0 {
		fmt.Fprintf(w, "WARNING: %d trace events dropped (ring full); timeline is incomplete\n", r.TraceDropped)
	}

	if rf := r.Roofline; rf != nil && rf.KernelBytes > 0 {
		fmt.Fprintf(w, "\nroofline:\n")
		if rf.Kernel != "" {
			fmt.Fprintf(w, "  kernel path      %s", rf.Kernel)
			if rf.Block != "" {
				fmt.Fprintf(w, " (%s)", rf.Block)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "  kernel flops     %d counted\n", rf.KernelFlops)
		if rf.ExecutedFlops > 0 {
			fmt.Fprintf(w, "  executed flops   %d (%.1f per gravitational interaction; counted %d, +%d with quadrupoles)\n",
				rf.ExecutedFlops, rf.ExecutedPerInteraction, r.Constants.FlopsPerInteraction, r.Constants.FlopsPerQuadrupole)
		}
		fmt.Fprintf(w, "  kernel bytes     %d\n", rf.KernelBytes)
		fmt.Fprintf(w, "  intensity        %.2f flops/byte (paper: 38 flops / 32 bytes = 1.19)\n", rf.Intensity)
		fmt.Fprintf(w, "  achieved         %s\n", diag.Rate(uint64(rf.AchievedFlops), 1))
		if rf.PeakFlops > 0 {
			fmt.Fprintf(w, "  peak compute     %s (measured)\n", diag.Rate(uint64(rf.PeakFlops), 1))
			fmt.Fprintf(w, "  peak bandwidth   %.2f GB/s (measured)\n", rf.PeakBandwidth/1e9)
			fmt.Fprintf(w, "  ridge point      %.2f flops/byte\n", rf.RidgeIntensity)
			fmt.Fprintf(w, "  ceiling          %s executed (%s-bound)\n", diag.Rate(uint64(rf.Ceiling), 1), rf.Bound)
			fmt.Fprintf(w, "  utilization      %.1f%% of roofline ceiling (executed flops)\n", rf.Utilization*100)
		}
	}

	if st := r.Stepping; st != nil {
		fmt.Fprintf(w, "\nstepping (%s", st.Mode)
		if st.Eta > 0 {
			fmt.Fprintf(w, ", eta=%g", st.Eta)
		}
		fmt.Fprintf(w, "):\n")
		fmt.Fprintf(w, "  steps            %d big, %d sub-steps\n", st.BigSteps, st.SubSteps)
		fmt.Fprintf(w, "  force evals      %d full, %d partial\n", st.FullEvals, st.PartialEvals)
		if st.TotalSinks > 0 {
			fmt.Fprintf(w, "  active fraction  %.4f (%d of %d sink evaluations)\n",
				st.ActiveFraction, st.ActiveSinks, st.TotalSinks)
			if st.ActiveFraction > 0 {
				fmt.Fprintf(w, "  eval saving      %.2fx fewer sink evaluations than uniform sub-stepping\n",
					1/st.ActiveFraction)
			}
		}
		if len(st.RungOccupancy) > 0 {
			fmt.Fprintf(w, "  rung occupancy  ")
			for rr, n := range st.RungOccupancy {
				fmt.Fprintf(w, " r%d=%d", rr, n)
			}
			fmt.Fprintln(w)
		}
	}

	fmt.Fprintf(w, "\nper-rank work:\n")
	fmt.Fprintf(w, "  %4s %14s %16s %10s %12s %8s %6s %6s %7s %6s %8s %8s\n",
		"rank", "interactions", "flops", "sent msgs", "sent bytes", "remote", "split", "reloc", "batches", "colls", "pushed", "used")
	for _, rr := range r.Ranks {
		c := &rr.Counters
		fmt.Fprintf(w, "  %4d %14d %16d %10d %12d %8d %6d %6d %7d %6d %8d %8d\n",
			rr.Rank, c.Interactions(), rr.Flops, rr.SentMsgs, rr.SentBytes,
			rr.RemoteCells, rr.SplitRounds, rr.Relocated, rr.BodyBatches, rr.Collectives, c.Pushed, c.PushUsed)
	}

	if len(r.Phases) > 0 {
		fmt.Fprintf(w, "\nphase balance (seconds across ranks; eff = mean/max):\n")
		fmt.Fprintf(w, "  %-14s %10s %10s %10s %10s %6s\n", "phase", "min", "max", "mean", "median", "eff")
		for _, pb := range r.Phases {
			fmt.Fprintf(w, "  %-14s %10.4f %10.4f %10.4f %10.4f %6.2f\n",
				pb.Phase, pb.Min, pb.Max, pb.Mean, pb.Median, pb.Efficiency)
		}
	}

	if len(r.CommMatrixBytes) > 0 {
		fmt.Fprintf(w, "\ncomm matrix (bytes; row = src rank, col = dst rank):\n      ")
		for d := range r.CommMatrixBytes {
			fmt.Fprintf(w, "%12s", fmt.Sprintf("->%d", d))
		}
		fmt.Fprintln(w)
		for s, row := range r.CommMatrixBytes {
			fmt.Fprintf(w, "  r%-3d", s)
			for _, b := range row {
				fmt.Fprintf(w, "%12d", b)
			}
			fmt.Fprintln(w)
		}
	}

	if len(r.Histograms) > 0 {
		fmt.Fprintf(w, "\nhistograms:\n")
		names := make([]string, 0, len(r.Histograms))
		for n := range r.Histograms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h := r.Histograms[n]
			fmt.Fprintf(w, "  %-20s n=%d  p50=%d  p90=%d  p99=%d  max=%d\n",
				n, h.Count, h.P50, h.P90, h.P99, h.Max)
		}
	}

	if len(r.Metrics) > 0 {
		fmt.Fprintf(w, "\nmetrics:\n")
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-24s %g\n", n, r.Metrics[n])
		}
	}
}

// Diff compares two reports (old, new) and writes a delta table. It
// returns true if the new report's flop rate regressed by more than
// tol (fractionally) -- the simulation-level analogue of the
// benchdump ns/op guardrail, so CI can gate on end-to-end throughput.
func Diff(w io.Writer, base, cur *RunReport, tol float64) (regressed bool) {
	fmt.Fprintf(w, "diff: %s (np=%d) -> %s (np=%d)\n", base.Command, base.NP, cur.Command, cur.NP)
	rel := func(a, b float64) float64 {
		if a == 0 {
			return 0
		}
		return b/a - 1
	}
	dRate := rel(base.Totals.FlopsRate, cur.Totals.FlopsRate)
	status := "ok"
	if base.Totals.FlopsRate > 0 && dRate < -tol {
		status = fmt.Sprintf("REGRESSED (< -%0.f%%)", tol*100)
		regressed = true
	}
	fmt.Fprintf(w, "  %-16s %14.3e -> %14.3e  %+6.1f%%  %s\n",
		"flops_rate", base.Totals.FlopsRate, cur.Totals.FlopsRate, dRate*100, status)
	fmt.Fprintf(w, "  %-16s %14d -> %14d  %+6.1f%%\n",
		"interactions", base.Totals.Interactions, cur.Totals.Interactions,
		rel(float64(base.Totals.Interactions), float64(cur.Totals.Interactions))*100)
	fmt.Fprintf(w, "  %-16s %14d -> %14d  %+6.1f%%\n",
		"bytes", base.Totals.Bytes, cur.Totals.Bytes,
		rel(float64(base.Totals.Bytes), float64(cur.Totals.Bytes))*100)
	fmt.Fprintf(w, "  %-16s %14.3f -> %14.3f  %+6.1f%%\n",
		"wall_seconds", base.WallSeconds, cur.WallSeconds,
		rel(base.WallSeconds, cur.WallSeconds)*100)

	basePh := map[string]PhaseBalance{}
	for _, pb := range base.Phases {
		basePh[pb.Phase] = pb
	}
	for _, pb := range cur.Phases {
		if o, ok := basePh[pb.Phase]; ok {
			fmt.Fprintf(w, "  phase %-12s max %8.4fs -> %8.4fs  %+6.1f%%  (eff %.2f -> %.2f)\n",
				pb.Phase, o.Max, pb.Max, rel(o.Max, pb.Max)*100, o.Efficiency, pb.Efficiency)
		}
	}
	return regressed
}
