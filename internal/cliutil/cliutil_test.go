package cliutil

import (
	"strings"
	"testing"
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
		{func(f *Flags) { f.Chaos = "crash" }, "-chaos"},
		{func(f *Flags) { f.Chaos = "crash=2" }, "probability"},
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
