// Command benchdump converts `go test -bench` output into a stable
// JSON baseline, so successive PRs can diff performance instead of
// eyeballing bench logs:
//
//	go test -run=NONE -bench=Ablation -benchtime=1x . | go run ./cmd/benchdump -o BENCH_baseline.json
//
// Every benchmark line becomes a name plus a metric map (ns/op,
// B/op, allocs/op, and any custom b.ReportMetric units). Header lines
// (goos/goarch/cpu) are captured into the envelope. Output is sorted
// by name and deterministic for a given input.
//
// With -compare it becomes the allocation guard instead: fresh bench
// output on stdin is diffed against the committed baseline, and the
// exit status is 1 if any matched benchmark's allocs/op grew at all.
// ns/op is printed beside the baseline's and never fails the run: one
// unpaired timing on a shared machine resolves nothing.
//
//	go test -run=NONE -bench=Ablation_Eval -benchtime=100x . | \
//	  go run ./cmd/benchdump -compare BENCH_baseline.json -match Ablation_Eval
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// Bench is one parsed benchmark result.
type Bench struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// SimContext is the slice of a RunReport a baseline carries along: a
// bench number without the simulation that produced it (bodies, ranks,
// achieved flop rate) is hard to interpret a month later.
type SimContext struct {
	Command      string  `json:"command"`
	NP           int     `json:"np"`
	Bodies       int     `json:"bodies"`
	WallSeconds  float64 `json:"wall_seconds"`
	Interactions uint64  `json:"interactions"`
	FlopsRate    float64 `json:"flops_rate"`
}

// Baseline is the emitted document.
type Baseline struct {
	Go         string      `json:"go"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Sim        *SimContext `json:"sim,omitempty"`
	Benchmarks []Bench     `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.String("compare", "", "baseline JSON to compare stdin against (compare mode)")
	match := flag.String("match", "", "regexp restricting which benchmarks -compare checks")
	runreport := flag.String("runreport", "", "RunReport JSON (from a sim's -metrics) whose flop-rate context to embed")
	flag.Parse()

	base := Baseline{Go: runtime.Version()}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			base.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			base.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			base.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			base.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		if b, ok := parseBenchLine(line); ok {
			base.Benchmarks = append(base.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchdump: read:", err)
		os.Exit(1)
	}
	sort.Slice(base.Benchmarks, func(i, j int) bool {
		return base.Benchmarks[i].Name < base.Benchmarks[j].Name
	})

	if *runreport != "" {
		rep, err := metrics.ReadReport(*runreport)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdump: -runreport:", err)
			os.Exit(1)
		}
		base.Sim = &SimContext{
			Command:      rep.Command,
			NP:           rep.NP,
			Bodies:       rep.Bodies,
			WallSeconds:  rep.WallSeconds,
			Interactions: rep.Totals.Interactions,
			FlopsRate:    rep.Totals.FlopsRate,
		}
	}

	if *compare != "" {
		os.Exit(compareBaseline(base, *compare, *match))
	}

	enc, err := json.MarshalIndent(&base, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdump: encode:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchdump: write:", err)
		os.Exit(1)
	}
}

// compareBaseline diffs the freshly parsed benchmarks against the
// committed baseline and returns the process exit code. A benchmark
// regresses if its allocs/op grew at all (steady-state allocation is a
// correctness property of the batched walkers and the kernels, not a
// tuning knob). Benchmarks in the run but absent from the baseline, or
// whose baseline row has no allocs/op, are reported and skipped, so
// adding a benchmark does not require regenerating the baseline in the
// same change.
func compareBaseline(cur Baseline, path, match string) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdump: baseline:", err)
		return 1
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintln(os.Stderr, "benchdump: baseline:", err)
		return 1
	}
	re, err := regexp.Compile(match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdump: -match:", err)
		return 1
	}
	if base.Sim != nil {
		fmt.Printf("baseline context: %s np=%d n=%d, %.2f Mflops-equivalent\n",
			base.Sim.Command, base.Sim.NP, base.Sim.Bodies, base.Sim.FlopsRate/1e6)
	}
	baseBy := make(map[string]Bench, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}

	failed := false
	checked := 0
	for _, b := range cur.Benchmarks {
		if !re.MatchString(b.Name) {
			continue
		}
		ref, ok := baseBy[b.Name]
		if !ok {
			fmt.Printf("%-44s not in baseline (skipped)\n", b.Name)
			continue
		}
		refAllocs, ok := ref.Metrics["allocs/op"]
		if !ok {
			fmt.Printf("%-44s no allocs/op in baseline (skipped)\n", b.Name)
			continue
		}
		checked++
		curAllocs := b.Metrics["allocs/op"]
		status := "ok"
		if curAllocs > refAllocs {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-44s allocs/op %6.0f -> %6.0f  %-9s  (ns/op %.0f -> %.0f, not compared)\n",
			b.Name, refAllocs, curAllocs, status, ref.Metrics["ns/op"], b.Metrics["ns/op"])
	}
	if checked == 0 {
		fmt.Fprintf(os.Stderr, "benchdump: no benchmarks matched %q against the baseline\n", match)
		return 1
	}
	if failed {
		fmt.Println("benchdump: allocation regression against", path)
		return 1
	}
	fmt.Printf("benchdump: %d benchmark(s) allocate no more than in %s\n", checked, path)
	return 0
}

// parseBenchLine parses "BenchmarkFoo-8  4  123 ns/op  7 B/op  0.5 x/op".
// Fields after the iteration count come in (value, unit) pairs.
func parseBenchLine(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Bench{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix so baselines diff across machines.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}
