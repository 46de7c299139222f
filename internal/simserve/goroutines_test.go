package simserve

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestJobsLeaveNoGoroutines runs 20 jobs of every physics and stepping
// mode, at 2 and 4 ranks, through one manager: once they are all
// terminal the process is back to the goroutines it had before the
// first submission (the manager's own workers). A job that
// leaves anything running behind -- a rank, a watchdog, a pool -- grows
// a long-lived daemon without bound.
func TestJobsLeaveNoGoroutines(t *testing.T) {
	m := testManager(t, Config{Workers: 2})
	specs := []Spec{
		{Physics: PhysicsGravity, N: 300, Steps: 1},
		{Physics: PhysicsGravity, N: 300, Steps: 1, DTMode: "block"},
		{Physics: PhysicsSPH, N: 200, Steps: 1},
		{Physics: PhysicsVortex, N: 12, Steps: 2},
	}
	before := runtime.NumGoroutine()
	var jobs []*Job
	for i := 0; i < 20; i++ {
		sp := specs[i%len(specs)]
		sp.NP = 2 + 2*(i/len(specs)%2)
		j, err := m.Submit(sp)
		for errors.Is(err, ErrOverloaded) {
			time.Sleep(time.Millisecond)
			j, err = m.Submit(sp)
		}
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if st := waitTerminal(t, j, 60*time.Second); st != StateCompleted {
			t.Fatalf("%+v ended %s: %s", j.Spec, st, j.Status().Error)
		}
	}
	// A world's ranks return a moment after its job turns terminal.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the jobs drained, %d before they were submitted:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
