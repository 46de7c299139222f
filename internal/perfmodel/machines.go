// Package perfmodel holds the machine descriptions and the analytic
// time model that converts counted work (interactions, flops) and
// counted communication (messages, bytes from internal/msg) into
// modeled wall-clock time on the paper's platforms: ASCI Red, Loki,
// Hyglac, and the combined SC'96 system. It also encodes the paper's
// price tables (Tables 1 and 2) and computes the price/performance
// figures of merit.
//
// The model is deliberately the same arithmetic the paper uses:
// Gflops = interactions x 38 / wall-clock seconds. We substitute a
// calibrated per-processor kernel rate (derived from the paper's own
// published throughputs) plus a latency/bandwidth network term for
// the 1997 wall clock.
package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/diag"
	"repro/internal/msg"
)

// Machine describes one platform.
type Machine struct {
	Name         string
	Nodes        int
	ProcsPerNode int
	ClockMHz     int
	MemoryMB     int

	// GravityMflops is the sustained per-processor rate on the
	// 38-flop gravity kernel (calibrated from the paper's O(N^2)
	// result, which is pure kernel: 635 Gflops / 6800 procs).
	GravityMflops float64
	// TreeEfficiency discounts the kernel rate for treecode runs
	// (tree build + traversal overhead is not counted as flops;
	// calibrated from 430 Gflops / 6800 procs early-simulation rate).
	TreeEfficiency float64
	// ClusteredEfficiency further discounts deep-clustering phases
	// (calibrated from the 170 Gflops sustained figure on 4096 procs).
	ClusteredEfficiency float64

	// LatencyUS is the round-trip message latency seen by the
	// application (microseconds); BandwidthMBs the per-node
	// uni-directional bandwidth (MB/s).
	LatencyUS    float64
	BandwidthMBs float64

	// PriceUSD is the as-built system price.
	PriceUSD float64
}

// Procs returns the total processor count.
func (m *Machine) Procs() int { return m.Nodes * m.ProcsPerNode }

// The paper's platforms. Rates are calibrated from the paper's own
// numbers, so the model reproduces the headline results when fed the
// paper's interaction counts; the reproduction then feeds it *our*
// measured interaction counts.
var (
	// ASCIRed in its April 1997 partial configuration: 3400 nodes x 2
	// PPro 200 available of 4536 total. Measured MPI numbers from the
	// paper: 290 MB/s per node, 41 us round trip with co-processor.
	ASCIRed = Machine{
		Name: "ASCI Red (6800 procs)", Nodes: 3400, ProcsPerNode: 2,
		ClockMHz: 200, MemoryMB: 3400 * 128,
		GravityMflops:       93.4, // 635 Gflops / 6800
		TreeEfficiency:      0.68, // 431 Gflops / 6800 / 93.4
		ClusteredEfficiency: 0.44, // 170 Gflops / 4096 / 93.4
		LatencyUS:           41, BandwidthMBs: 290,
		PriceUSD: 55_000_000, // DOE contract scale, for context only
	}
	// ASCIRed4096 is the 2048-node partition of the sustained run.
	ASCIRed4096 = Machine{
		Name: "ASCI Red (4096 procs)", Nodes: 2048, ProcsPerNode: 2,
		ClockMHz: 200, MemoryMB: 2048 * 128,
		GravityMflops: 93.4, TreeEfficiency: 0.68, ClusteredEfficiency: 0.44,
		LatencyUS: 41, BandwidthMBs: 290,
		PriceUSD: 55_000_000,
	}
	// Loki: 16 x PPro 200, switched fast ethernet. Paper: 11.5 MB/s
	// per port, 208 us round trip MPI. Rate calibrated from the
	// initial 30 steps: 1.19 Gflops / 16 = 74.4 Mflops/proc,
	// treecode-inclusive; kernel rate matches Red's CPUs.
	Loki = Machine{
		Name: "Loki (16 procs)", Nodes: 16, ProcsPerNode: 1,
		ClockMHz: 200, MemoryMB: 2048,
		GravityMflops:       93.4,
		TreeEfficiency:      0.80, // 74.4/93.4: less comm wait at 16 procs
		ClusteredEfficiency: 0.59, // 879 Mflops sustained / 16 / 93.4
		LatencyUS:           208, BandwidthMBs: 11.5,
		PriceUSD: 51_379,
	}
	// Hyglac: near-identical hardware, single 16-way switch.
	Hyglac = Machine{
		Name: "Hyglac (16 procs)", Nodes: 16, ProcsPerNode: 1,
		ClockMHz: 200, MemoryMB: 2048,
		GravityMflops:       93.4,
		TreeEfficiency:      0.80,
		ClusteredEfficiency: 0.64, // 950 Mflops vortex / 16 / 93.4
		LatencyUS:           208, BandwidthMBs: 11.5,
		PriceUSD: 50_498,
	}
	// SC96 is Loki+Hyglac connected on the SC'96 floor: 32 procs,
	// $103k including $3k of interconnect.
	SC96 = Machine{
		Name: "Loki+Hyglac (SC'96, 32 procs)", Nodes: 32, ProcsPerNode: 1,
		ClockMHz: 200, MemoryMB: 4096,
		GravityMflops:       93.4,
		TreeEfficiency:      0.73, // 2.19 Gflops / 32 / 93.4
		ClusteredEfficiency: 0.73,
		LatencyUS:           208, BandwidthMBs: 11.5,
		PriceUSD: 103_000,
	}
)

// Regime selects which calibrated efficiency applies.
type Regime int

const (
	// RegimeKernel models pure kernel work (the O(N^2) benchmark).
	RegimeKernel Regime = iota
	// RegimeTreeEarly models unclustered treecode steps.
	RegimeTreeEarly
	// RegimeTreeClustered models deep-clustering treecode steps.
	RegimeTreeClustered
)

func (m *Machine) rate(r Regime) float64 {
	switch r {
	case RegimeKernel:
		return m.GravityMflops
	case RegimeTreeEarly:
		return m.GravityMflops * m.TreeEfficiency
	case RegimeTreeClustered:
		return m.GravityMflops * m.ClusteredEfficiency
	default:
		panic("perfmodel: unknown regime")
	}
}

// Estimate is a modeled run.
type Estimate struct {
	Machine     *Machine
	Flops       uint64
	ComputeSec  float64
	CommSec     float64
	TotalSec    float64
	Gflops      float64
	PerMflopUSD float64
}

// Model converts counted flops plus the bottleneck rank's
// communication into a wall-clock estimate on machine m. comm may be
// zero-valued for compute-only estimates.
func (m *Machine) Model(flops uint64, regime Regime, comm msg.PhaseTraffic) Estimate {
	rate := m.rate(regime) * 1e6 * float64(m.Procs())
	e := Estimate{Machine: m, Flops: flops}
	e.ComputeSec = float64(flops) / rate
	e.CommSec = float64(comm.Msgs)*m.LatencyUS*1e-6 +
		float64(comm.Bytes)/(m.BandwidthMBs*1e6)
	e.TotalSec = e.ComputeSec + e.CommSec
	if e.TotalSec > 0 {
		e.Gflops = float64(flops) / e.TotalSec / 1e9
	}
	if e.Gflops > 0 {
		e.PerMflopUSD = m.PriceUSD / (e.Gflops * 1e3)
	}
	return e
}

// String renders the estimate in the paper's idiom.
func (e Estimate) String() string {
	return fmt.Sprintf("%s: %s over %s (compute %s + comm %s), $%.0f/Mflop",
		e.Machine.Name, diag.Rate(e.Flops, e.TotalSec), seconds(e.TotalSec),
		seconds(e.ComputeSec), seconds(e.CommSec), e.PerMflopUSD)
}

// seconds renders a modeled time to three significant digits at any
// scale: a test-sized run on 6800 processors is a millisecond, not
// "0.0 s", and ten days are "850000 s", not 8.5e+05.
func seconds(s float64) string {
	if s >= 1000 {
		return fmt.Sprintf("%.0f s", s)
	}
	return fmt.Sprintf("%.3g s", s)
}

// ScaleInteractions extrapolates a measured interactions-per-body
// count at n0 bodies to n bodies assuming the O(N log N) treecode
// profile: interactions/body grows with log N.
func ScaleInteractions(perBody float64, n0, n float64) float64 {
	if n0 <= 1 || n <= 1 {
		return perBody
	}
	return perBody * math.Log(n) / math.Log(n0)
}
