package simserve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// heapAfterGC returns the live heap in bytes.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTerminalJobsAreEvicted runs 500 tiny jobs through one manager:
// the job table never holds more than retainTerminal finished jobs
// plus those queued and running, a job is never forgotten before it is
// terminal, the live heap after the last job is within a fixed bound
// of what it was after the first retainTerminal (a retained job pins
// its sampler, registry and handler, ~10 KB even at this size: +4.3 MB
// over the run when nothing is evicted, +20 KB now), and the HTTP edge
// tells a forgotten ID (410) from one never issued (404).
func TestTerminalJobsAreEvicted(t *testing.T) {
	const total, workers = 500, 2
	m := testManager(t, Config{Workers: workers})
	spec := Spec{Physics: PhysicsGravity, N: 64, NP: 2, Steps: 1, Seed: 3}

	live := map[string]*Job{} // submitted, not yet seen terminal
	var first, last string
	var heap64 uint64
	sweep := func() {
		inFlight := 0
		for id, j := range live {
			_, tracked := m.Get(id)
			switch st := j.State(); {
			case st.Terminal():
				delete(live, id)
			case !tracked:
				t.Fatalf("job %s forgotten while %s", id, st)
			default:
				inFlight++
			}
		}
		// Jobs seen in flight may have finished since, never the reverse;
		// each worker may hold one job whose state is already terminal
		// and whose retirement is the next thing it does.
		if n, most := len(m.Jobs()), retainTerminal+inFlight+workers; n > most {
			t.Fatalf("%d jobs tracked with %d in flight, want <= %d", n, inFlight, most)
		}
	}
	drain := func() {
		deadline := time.Now().Add(60 * time.Second)
		for len(live) > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d jobs still not terminal", len(live))
			}
			time.Sleep(time.Millisecond)
			sweep()
		}
	}
	for i := 0; i < total; i++ {
		j, err := m.Submit(spec)
		for errors.Is(err, ErrOverloaded) {
			time.Sleep(time.Millisecond)
			sweep()
			j, err = m.Submit(spec)
		}
		if err != nil {
			t.Fatal(err)
		}
		live[j.ID] = j
		if i == 0 {
			first = j.ID
		}
		last = j.ID
		if i%16 == 0 {
			sweep()
		}
		if i == retainTerminal-1 {
			drain()
			heap64 = heapAfterGC()
		}
	}
	drain()
	// A worker makes a job terminal before it retires it, so the last
	// retirements may still be on their way.
	evicted := m.Registry().Counter(MetricEvicted)
	for deadline := time.Now().Add(60 * time.Second); evicted.Value() < total-retainTerminal && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	if n := len(m.Jobs()); n != retainTerminal {
		t.Errorf("%d jobs tracked after drain, want %d", n, retainTerminal)
	}
	if got := evicted.Value(); got != total-retainTerminal {
		t.Errorf("%s = %d, want %d", MetricEvicted, got, total-retainTerminal)
	}
	const bound = 1 << 20
	if heap := heapAfterGC(); heap > heap64+bound {
		t.Errorf("live heap %d KB after %d jobs, %d KB after %d: grew more than %d KB",
			heap>>10, total, heap64>>10, retainTerminal, bound>>10)
	} else {
		t.Logf("live heap %d KB after %d jobs, %d KB after %d", heap>>10, total, heap64>>10, retainTerminal)
	}

	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	for path, want := range map[string]int{
		"/jobs/" + first:             http.StatusGone,
		"/jobs/" + first + "/series": http.StatusGone,
		"/jobs/" + last:              http.StatusOK,
		"/jobs/j-999999":             http.StatusNotFound,
		"/jobs/j-1":                  http.StatusNotFound,
	} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, r.StatusCode, want)
		}
	}
}
