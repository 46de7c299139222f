package parallel

import (
	"sync"
	"testing"
	"time"

	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/vec"
)

// A pushed walk phase ends without a vote, so nothing holds an owner
// back until its peers have imported what it pushed: it walks,
// integrates and moves its bodies while a delayed batch is still in
// flight. The batch must carry copies (the engine's snapshot), or a late
// importer reads positions the owner has already drifted. On four ranks,
// with one message in four held up to 20 ms, every body's force after
// each of eight steps equals that of the same run with no latency, bit
// for bit -- and under -race the run reports no race.
func TestForcesUnderLatencyMatchWithout(t *testing.T) {
	const n, np, steps = 2000, 4, 8
	global := ic.Plummer(n, 1.0, 53)
	run := func(inj *msg.Injector) [steps]map[int64]vec.V3 {
		var acc [steps]map[int64]vec.V3
		for s := range acc {
			acc[s] = make(map[int64]vec.V3, n)
		}
		var mu sync.Mutex
		w := msg.NewWorld(np)
		if inj != nil {
			w.SetInjector(inj)
		}
		w.Run(func(c *msg.Comm) {
			e := New(c, scatter(global, c), Config{
				MAC:  grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true},
				Eps2: 1e-6,
			})
			e.ComputeForces()
			for s := 0; s < steps; s++ {
				e.Step(2e-3)
				mu.Lock()
				for i, id := range e.Sys.ID {
					acc[s][id] = e.Sys.Acc[i]
				}
				mu.Unlock()
			}
		})
		return acc
	}
	want := run(nil)
	inj := &msg.Injector{Seed: 7, LatencyProb: 0.25, MaxLatency: 20 * time.Millisecond}
	got := run(inj)
	if inj.Stats().Delays == 0 {
		t.Fatal("the injector delayed no message")
	}
	for s := range want {
		if len(got[s]) != n || len(want[s]) != n {
			t.Fatalf("step %d: %d and %d bodies, want %d", s, len(got[s]), len(want[s]), n)
		}
		for id, a := range want[s] {
			if got[s][id] != a {
				t.Fatalf("step %d: body %d force %v under latency, %v without", s, id, got[s][id], a)
			}
		}
	}
	t.Logf("%d messages delayed", inj.Stats().Delays)
}
