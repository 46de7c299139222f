package cliutil

import (
	"flag"
	"math"
	"strings"
	"testing"

	"repro/internal/runner"
)

// ok is the baseline every variation below perturbs one field of.
func ok() Flags {
	return Flags{N: 1000, Procs: 4, Steps: 3, DTMode: "uniform", Eta: 0.02}
}

func TestValidateAccepts(t *testing.T) {
	cases := []Flags{
		ok(),
		{N: 1, Procs: 1, Steps: 0}, // minimal, no dtmode flag
		{N: 10, Procs: 2, Steps: 1, DTMode: "block", Eta: 0.02},
		{N: 10, Procs: 2, Steps: 1, Chaos: "seed=7,crash=0.001,crashphase=walk"},
	}
	for i, f := range cases {
		if _, err := f.Validate(); err != nil {
			t.Errorf("case %d %+v: unexpected error %v", i, f, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		mutate func(*Flags)
		want   string
	}{
		{func(f *Flags) { f.N = 0 }, "problem size"},
		{func(f *Flags) { f.N = -5 }, "problem size"},
		{func(f *Flags) { f.Procs = 0 }, "-procs"},
		{func(f *Flags) { f.Steps = -1 }, "-steps"},
		{func(f *Flags) { f.DTMode = "adaptive" }, "-dtmode"},
		{func(f *Flags) { f.DTMode = "block"; f.Eta = 0 }, "-eta"},
		{func(f *Flags) { f.DTMode = "block"; f.Eta = math.NaN() }, "-eta"},
		{func(f *Flags) { f.DTMode = "block"; f.Eta = math.Inf(1) }, "-eta"},
		{func(f *Flags) { f.Chaos = "crash" }, "-chaos"},
		{func(f *Flags) { f.Chaos = "crash=2" }, "probability"},
		{func(f *Flags) { f.Chaos = "crash=NaN" }, "probability"},
		{func(f *Flags) { f.Chaos = "stall=-Inf" }, "probability"},
		{func(f *Flags) { f.Chaos = "latency=+Inf" }, "probability"},
		{func(f *Flags) { f.Chaos = "seed=x" }, "seed"},
		{func(f *Flags) { f.Chaos = "frob=0.5" }, "unknown chaos key"},
	}
	for i, c := range cases {
		f := ok()
		c.mutate(&f)
		_, err := f.Validate()
		if err == nil {
			t.Errorf("case %d %+v: expected error", i, f)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q does not mention %q", i, err, c.want)
		}
		if strings.ContainsRune(err.Error(), '\n') {
			t.Errorf("case %d: usage error is not one line: %q", i, err)
		}
	}
}

func TestParseChaosFields(t *testing.T) {
	inj, err := ParseChaos("seed=9,crash=0.25,crashphase=walk,stall=0.5,stallphase=build,latency=1,reorder=0")
	if err != nil {
		t.Fatal(err)
	}
	if inj.Seed != 9 || inj.CrashProb != 0.25 || inj.CrashPhase != "walk" ||
		inj.StallProb != 0.5 || inj.StallPhase != "build" ||
		inj.LatencyProb != 1 || inj.ReorderProb != 0 {
		t.Fatalf("parsed injector = %+v", inj)
	}
	// Empty fields and surrounding whitespace are tolerated.
	if _, err := ParseChaos(" seed=1 , crash=0.1 ,"); err != nil {
		t.Fatalf("whitespace spec: %v", err)
	}
}

// FuzzParseChaos: whatever the spec string, ParseChaos returns an
// error or an injector whose four probabilities are finite and in
// [0, 1]; it never panics.
func FuzzParseChaos(f *testing.F) {
	for _, seed := range []string{
		"", "seed=7,crash=0.001,crashphase=walk", "stall=0.002,latency=0.02",
		" seed=1 , crash=0.1 ,", "crash=NaN", "reorder=1e-400", "latency=0x1p-2",
		"crash", "seed=-1", "frob=0.5", "crash=0.5=0.5", "stallphase=,crashphase==",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		inj, err := ParseChaos(spec)
		if err != nil {
			if inj != nil {
				t.Errorf("%q: error %v with a non-nil injector", spec, err)
			}
			return
		}
		for _, p := range []float64{inj.CrashProb, inj.StallProb, inj.LatencyProb, inj.ReorderProb} {
			if !(p >= 0 && p <= 1) {
				t.Errorf("%q: accepted with probability %v in %+v", spec, p, inj)
			}
		}
	})
}

// The six observability flags keep the names and defaults every driver
// declared for itself, and with none set Start attaches nothing.
func TestObsFlags(t *testing.T) {
	o := ObsFlags("cliutil.test")
	for name, def := range map[string]string{
		"trace": "", "metrics": "", "cpuprofile": "", "memprofile": "", "http": "", "noprogress": "3s",
	} {
		fl := flag.Lookup(name)
		if fl == nil || fl.DefValue != def {
			t.Errorf("flag -%s: %+v, want default %q", name, fl, def)
		}
	}
	if o.instrumented() {
		t.Error("instrumented with no flag set")
	}
	o.Start(4, runner.Attachments{})
	defer o.Close()
	if at := o.at; at.Trace != nil || at.Registry != nil || at.Sampler != nil || len(o.closers) != 0 {
		t.Errorf("flags off, yet Start attached %+v", at)
	}
	o.metrics = "report.json"
	o.Start(4, runner.Attachments{})
	if at := o.at; at.Registry == nil || at.Trace != nil || at.Sampler != nil {
		t.Errorf("-metrics alone should attach a registry only, got %+v", at)
	}
}
