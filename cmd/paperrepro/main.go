// Command paperrepro regenerates every table and figure of the paper
// at laptop scale and prints paper-vs-reproduced rows. See DESIGN.md
// for the experiment index and EXPERIMENTS.md for a recorded run.
//
// Usage:
//
//	paperrepro [-exp all|e1|e2|e3|e4|e5|e6|f1|f2|t1|t2|t3|t4] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/npb"
	"repro/internal/perfmodel"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (e1..e6, f1, f2, t1..t4, all)")
	quick := flag.Bool("quick", false, "smaller problems (CI sizes)")
	flag.Parse()

	grid := 32
	procs := 8
	if *quick {
		grid, procs = 16, 4
	}

	run := func(id string) {
		switch id {
		case "e1":
			// Large enough that the ring, not the timer, sets the
			// measured rate: ~1 s on a 2-core host.
			n := 60000
			if *quick {
				n = 20000
			}
			res := experiments.E1(n, procs, 1)
			printRows(res.Rows)
			fmt.Printf("      host wall-clock %.2fs\n", res.HostSeconds)
		case "e2", "ratio":
			res := experiments.E2(grid, procs, 3)
			printRows(res.Rows)
		case "e3":
			printRows(experiments.E3(grid, 3))
		case "e4":
			nt, nc := 48, 4
			if *quick {
				nt, nc = 24, 3
			}
			printRows(experiments.E4(nt, nc, 6))
		case "e5":
			printRows(experiments.E5(grid, 3))
		case "e6":
			printRows(experiments.E6(grid, procs, 3))
		case "f1", "f2":
			g := grid * 2
			steps := 8
			if *quick {
				g, steps = grid, 3
			}
			path := id + ".pgm"
			if err := experiments.Figure(path, g, procs, steps, 512); err != nil {
				fmt.Fprintln(os.Stderr, "figure:", err)
				os.Exit(1)
			}
			fmt.Printf("%s: wrote %s (log-density projection, cf. paper Figure %c)\n", id, path, id[1])
		case "t1":
			fmt.Println("Table 1: Loki architecture and price (September 1996)")
			fmt.Print(perfmodel.FormatTable(perfmodel.Table1Loki))
			fmt.Printf("paper total: $%d\n", perfmodel.Table1Total)
		case "t2":
			fmt.Println("Table 2: spot prices, August 1997")
			fmt.Print(perfmodel.FormatTable(perfmodel.Table2Spot))
			fmt.Printf("16-processor system from these parts: $%.0f (paper: ~$28k)\n",
				perfmodel.Aug97SystemUSD())
		case "t3":
			sizes := npb.MiniB
			if *quick {
				sizes = npb.MiniA
			}
			fmt.Println("Table 3 (shape): NPB at 16 processors, modeled Loki vs ASCI Red")
			fmt.Print(experiments.FormatNPBRows(experiments.NPBTable3(sizes)))
		case "t4":
			ranks := []int{1, 2, 4, 8, 16}
			if *quick {
				ranks = []int{1, 2, 4}
			}
			fmt.Println("Table 4 / Figure 3 (shape): NPB scaling on modeled Loki")
			tab := experiments.NPBTable4(npb.MiniA, ranks)
			for _, np := range ranks {
				fmt.Print(experiments.FormatNPBRows(tab[np]))
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
	}

	if *exp == "all" {
		for _, id := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "f1", "f2", "t1", "t2", "t3", "t4"} {
			fmt.Printf("==== %s ====\n", id)
			run(id)
			fmt.Println()
		}
		return
	}
	run(*exp)
}

func printRows(rows []experiments.Row) {
	for _, r := range rows {
		fmt.Println(" ", r)
	}
}
