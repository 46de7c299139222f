// Command pricecalc reproduces the paper's price/performance
// arithmetic: Tables 1 and 2, the August-1997 rebuild price, and the
// $/Mflop figures of merit for the headline runs.
//
// With -modern it re-runs Part II on present-day rented hardware: a
// cloud-instance table (vCPU, clock, FMA width, $/hr -> peak GFLOPS,
// hourly $/TFLOP, five-year rent), plus a measured figure -- a short
// treebench run on this host, one rank per GOMAXPROCS, its sustained
// Mflops priced at the five-year rent of a matching instance and
// printed next to the paper's $50/Mflop and GRAPE-5's $7/Mflops.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/perfmodel"
	"repro/internal/runner"
)

func main() {
	aug97 := flag.Bool("aug97", false, "show only the August 1997 spot-price table")
	modern := flag.Bool("modern", false, "show the modern machine table and a measured $/Mflop on this host")
	modernN := flag.Int("modern-n", 20000, "bodies for the -modern measured run")
	flag.Parse()

	if *modern {
		modernStudy(*modernN)
		return
	}

	if !*aug97 {
		fmt.Println("Table 1: Loki architecture and price (September 1996)")
		fmt.Print(perfmodel.FormatTable(perfmodel.Table1Loki))
		fmt.Println()
	}
	fmt.Println("Table 2: spot prices, August 1997")
	fmt.Print(perfmodel.FormatTable(perfmodel.Table2Spot))
	fmt.Printf("\n16-processor rebuild from Table 2 parts: $%.0f (paper: ~$28k)\n\n",
		perfmodel.Aug97SystemUSD())
	if *aug97 {
		return
	}

	fmt.Println("Price/performance (paper's figures of merit):")
	rows := []struct {
		what   string
		price  float64
		mflops float64
		paper  string
	}{
		{"Loki, 10-day 9.75M-body run (879 Mflops)", perfmodel.Loki.PriceUSD, 879, "$58/Mflop"},
		{"Loki, initial 30 steps (1.19 Gflops)", perfmodel.Loki.PriceUSD, 1190, "$43/Mflop"},
		{"Loki+Hyglac at SC'96 (2.19 Gflops)", perfmodel.SC96.PriceUSD, 2190, "$47/Mflop"},
		{"Hyglac vortex run (950 Mflops)", perfmodel.Hyglac.PriceUSD, 950, "$53/Mflop"},
	}
	for _, r := range rows {
		fmt.Printf("  %-44s $%5.1f/Mflop (paper: %s)\n",
			r.what, perfmodel.PricePerMflop(r.price, r.mflops), r.paper)
	}
}

// modernStudy prints the present-day instance table and a measured
// $/Mflop: a short distributed treecode run on this host gives a
// sustained Mflops rate, which is priced at the five-year rent of the
// smallest listed instance with at least GOMAXPROCS vCPUs (prorated
// to the vCPUs actually used).
func modernStudy(n int) {
	fmt.Println("Modern machine table (on-demand cloud instances):")
	fmt.Print(perfmodel.FormatModernTable(perfmodel.ModernTable))

	procs := runtime.GOMAXPROCS(0)
	mflops, inter := measureTreecode(n, procs)
	fmt.Printf("\nmeasured: %d-body clustered treecode on this host (%d ranks)\n", n, procs)
	fmt.Printf("  %d interactions/eval, %.0f sustained Mflops (38 flops/interaction)\n", inter, mflops)

	// Smallest instance that covers this host's parallelism; fall back
	// to the largest. The five-year rent is prorated by the vCPU
	// fraction actually used, matching the paper's convention of
	// pricing only the hardware the run occupied.
	pick := perfmodel.ModernTable[0]
	for _, m := range perfmodel.ModernTable {
		if m.VCPU >= procs && (pick.VCPU < procs || m.VCPU < pick.VCPU) {
			pick = m
		}
	}
	frac := float64(procs) / float64(pick.VCPU)
	if frac > 1 {
		frac = 1
	}
	cost := pick.FiveYearUSD() * frac
	perMflop := perfmodel.PricePerMflop(cost, mflops)
	fmt.Printf("\nprice/performance, five-year rent of %d/%d vCPUs of %s ($%.0f):\n",
		procs, pick.VCPU, pick.Name, cost)
	fmt.Printf("  measured      $%.2f/Mflop\n", perMflop)
	fmt.Printf("  paper (1997)  $%d/Mflop  (Loki, \"about $50/Mflop\")\n", perfmodel.PaperPerMflopUSD)
	fmt.Printf("  GRAPE-5       $%d/Mflops (special-purpose figure the paper cites)\n", perfmodel.Grape5PerMflopUSD)
}

// measureTreecode runs treebench's plan -- a clustered Plummer sphere,
// Salmon-Warren MAC with quadrupoles, three steps -- on procs ranks and
// returns the sustained Mflops under the paper's 38-flop accounting
// (counted flops over the world's wall clock, decomposition and tree
// builds included), plus the interactions per evaluation.
func measureTreecode(n, procs int) (mflops float64, interactions uint64) {
	const steps = 3
	res, err := runner.Run(runner.Plan{
		NP: procs, Steps: steps, DT: 1e-3,
		System: ic.Plummer(n, 1.0, 42),
		Physics: runner.Gravity{
			MAC:    grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true},
			Bucket: 16, Eps2: 1e-6,
		},
	}, runner.Attachments{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pricecalc: %v\n", err)
		os.Exit(3)
	}
	return float64(res.Counters.Flops()) / res.Wall.Seconds() / 1e6, res.Counters.Interactions() / (steps + 1)
}
