package perfmodel

import (
	"math"
	"strings"
	"testing"

	"repro/internal/msg"
)

func TestTable1SumsToPaperTotal(t *testing.T) {
	if got := Total(Table1Loki); got != Table1Total {
		t.Fatalf("Table 1 total $%.0f, paper prints $%d", got, Table1Total)
	}
}

func TestLokiPriceMatchesTable(t *testing.T) {
	if Loki.PriceUSD != Table1Total {
		t.Fatalf("Loki.PriceUSD = %v", Loki.PriceUSD)
	}
	if Hyglac.PriceUSD != 50_498 {
		t.Fatalf("Hyglac price = %v (paper: $50,498 incl. tax)", Hyglac.PriceUSD)
	}
	if SC96.PriceUSD != 103_000 {
		t.Fatalf("SC96 price = %v (paper: $103k)", SC96.PriceUSD)
	}
}

func TestAug97SystemNear28k(t *testing.T) {
	// The paper: "A 16 processor 200MHz-2 Gbyte memory-50 Gbyte disk
	// system with BayStack switch would be $28k."
	got := Aug97SystemUSD()
	if got < 26_000 || got > 30_000 {
		t.Fatalf("Aug-97 system price $%.0f, paper says ~$28k", got)
	}
}

func TestMachineCalibrationReproducesPaperHeadlines(t *testing.T) {
	// Feeding the paper's own interaction counts through the model
	// must reproduce the paper's Gflops within a few percent (the
	// rates were calibrated from them, so this is a consistency check
	// of the arithmetic, like the paper's own flop accounting).
	cases := []struct {
		name      string
		m         *Machine
		flops     uint64
		regime    Regime
		wantGF    float64
		tolerance float64
	}{
		// 1e6 bodies, 4 steps, N^2: 1e6*1e6*38*4 flops in 239.3 s.
		{"E1 n2", &ASCIRed, 4 * 38 * 1_000_000 * 1_000_000, RegimeKernel, 635, 0.03},
		// First 5 treecode steps: 7.18e12 interactions in 632 s.
		{"E2b peak", &ASCIRed, 7_180_000_000_000 * 38, RegimeTreeEarly, 431, 0.03},
		// Sustained: 1.52e14 interactions over 9h24m on 4096 procs.
		{"E2a sustained", &ASCIRed4096, 152_000_000_000_000 * 38, RegimeTreeClustered, 170, 0.03},
		// Loki first 30 steps: 1.15e12 interactions in 36973 s.
		{"E3 early", &Loki, 1_150_000_000_000 * 38, RegimeTreeEarly, 1.19, 0.03},
		// Loki 10 days: 1.97e13 interactions in 850000 s.
		{"E3 sustained", &Loki, 19_700_000_000_000 * 38, RegimeTreeClustered, 0.879, 0.03},
	}
	for _, c := range cases {
		e := c.m.Model(c.flops, c.regime, msg.PhaseTraffic{})
		if rel := math.Abs(e.Gflops-c.wantGF) / c.wantGF; rel > c.tolerance {
			t.Errorf("%s: modeled %.1f Gflops, paper %.1f (rel %.3f)", c.name, e.Gflops, c.wantGF, rel)
		}
	}
}

func TestPricePerformanceHeadlines(t *testing.T) {
	// $58/Mflop for the 10-day Loki run at 879 Mflops.
	if got := PricePerMflop(Loki.PriceUSD, 879); math.Abs(got-58) > 1.0 {
		t.Fatalf("Loki 10-day $/Mflop = %.1f, paper says $58", got)
	}
	// $47/Mflop for the SC'96 benchmark at 2.19 Gflops on $103k.
	if got := PricePerMflop(SC96.PriceUSD, 2190); math.Abs(got-47) > 1.0 {
		t.Fatalf("SC96 $/Mflop = %.1f, paper says $47", got)
	}
}

func TestModelCommTerm(t *testing.T) {
	m := Loki
	e0 := m.Model(1e9, RegimeKernel, msg.PhaseTraffic{})
	e1 := m.Model(1e9, RegimeKernel, msg.PhaseTraffic{Msgs: 1000, Bytes: 11_500_000})
	// 1000 msgs at 208us = 0.208 s; 11.5 MB at 11.5 MB/s = 1 s.
	if d := e1.CommSec - 1.208; math.Abs(d) > 1e-9 {
		t.Fatalf("comm time %v, want 1.208", e1.CommSec)
	}
	if e1.TotalSec <= e0.TotalSec {
		t.Fatal("communication must slow the run")
	}
	if e1.Gflops >= e0.Gflops {
		t.Fatal("Gflops must drop with comm")
	}
}

func TestRegimeOrdering(t *testing.T) {
	for _, m := range []*Machine{&ASCIRed, &Loki, &Hyglac, &SC96} {
		k := m.Model(1e12, RegimeKernel, msg.PhaseTraffic{})
		e := m.Model(1e12, RegimeTreeEarly, msg.PhaseTraffic{})
		c := m.Model(1e12, RegimeTreeClustered, msg.PhaseTraffic{})
		// SC96 has a single published benchmark, so its two tree
		// efficiencies coincide; require monotone, not strict.
		if !(k.Gflops > e.Gflops && e.Gflops >= c.Gflops) {
			t.Fatalf("%s: regime ordering violated: %v %v %v", m.Name, k.Gflops, e.Gflops, c.Gflops)
		}
	}
}

func TestProcsAndString(t *testing.T) {
	if ASCIRed.Procs() != 6800 {
		t.Fatalf("ASCI Red procs = %d", ASCIRed.Procs())
	}
	if Loki.Procs() != 16 {
		t.Fatalf("Loki procs = %d", Loki.Procs())
	}
	e := Loki.Model(38_000_000_000, RegimeTreeEarly, msg.PhaseTraffic{})
	s := e.String()
	if !strings.Contains(s, "Loki") || !strings.Contains(s, "/Mflop") {
		t.Fatalf("estimate string: %q", s)
	}
	// A 20 000-body step on all of ASCI Red is a fraction of a
	// millisecond of modeled time, and ten days on Loki most of a
	// million seconds: neither may print as zero or as an exponent.
	small := ASCIRed.Model(20_000*2_800*38, RegimeTreeEarly, msg.PhaseTraffic{Msgs: 10, Bytes: 1 << 16}).String()
	if strings.Contains(small, " 0 s") || strings.Contains(small, "0.0 s") {
		t.Errorf("a sub-millisecond estimate prints as zero: %q", small)
	}
	if long := Loki.Model(19_700_000_000_000*38, RegimeTreeEarly, msg.PhaseTraffic{}).String(); strings.Contains(long, "e+") {
		t.Errorf("a ten-day estimate prints with an exponent: %q", long)
	}
}

func TestScaleInteractions(t *testing.T) {
	// log-N scaling: doubling ln(N) doubles interactions/body.
	got := ScaleInteractions(100, math.E, math.E*math.E)
	if math.Abs(got-200) > 1e-9 {
		t.Fatalf("ScaleInteractions = %v", got)
	}
	if ScaleInteractions(100, 1, 10) != 100 {
		t.Fatal("degenerate n0 must pass through")
	}
}

func TestFormatTable(t *testing.T) {
	s := FormatTable(Table1Loki)
	if !strings.Contains(s, "Pentium Pro") || !strings.Contains(s, "51379") {
		t.Fatalf("table rendering:\n%s", s)
	}
}
