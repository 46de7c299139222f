package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/metrics"
)

// The routes a simulation service serves per job are read under real
// concurrency: many HTTP readers against /series, /health and /report
// while every rank keeps Contributing. Run under -race (check.sh puts
// this package on the uncached race list), this pins that the
// sampler's slot/ring locking actually covers the handler paths --
// the assembler reading a slot mid-copy, LiveReport snapshotting
// phases while a rank overwrites them, the ring evicting under a
// /series copy.
func TestConcurrentHTTPReadsUnderContribution(t *testing.T) {
	const (
		np      = 4
		steps   = 200
		readers = 8
	)
	reg := metrics.NewRegistry()
	s := NewSampler(Config{
		NP: np, Capacity: 64, Registry: reg, Command: "race",
		Monitors: MonitorConfig{EnergyDriftTol: 0.02, ImbalanceMax: 4, NoProgress: time.Second, Log: discard()},
	})
	defer s.Close()
	reg.Histogram("job_latency_ns").Observe(1000)

	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	var writers, rdrs sync.WaitGroup
	stop := make(chan struct{})

	// np ranks contributing from their own goroutines: each rank races
	// ahead on its own, which is exactly the slot-overwrite case the
	// padded mutexes exist for.
	for r := 0; r < np; r++ {
		writers.Add(1)
		go func(r int) {
			defer writers.Done()
			for i := 0; i < steps; i++ {
				rs := rank(uint64(100+i), int64(1e6+r), 5, 1000)
				rs.Phases = []diag.Phase{{Name: "walk", D: time.Duration(i)}}
				rs.Stepping.Mode, rs.Stepping.Occupancy = "block", []uint64{uint64(i)}
				s.Contribute(r, rs)
			}
		}(r)
	}

	for i := 0; i < readers; i++ {
		rdrs.Add(1)
		go func(i int) {
			defer rdrs.Done()
			paths := []string{"/series?n=16", "/health", "/report", "/metrics"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + paths[i%len(paths)])
				if err != nil {
					t.Errorf("reader %d: %v", i, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}

	// Readers overlap the whole contribution window by construction:
	// they only stop after every writer is done.
	writers.Wait()
	close(stop)
	rdrs.Wait()

	// np*steps arrivals assemble exactly `steps` world samples.
	if smp, ok := s.Last(); !ok || smp.Step != steps {
		t.Fatalf("assembled %d steps, want %d", smp.Step, steps)
	}
}
