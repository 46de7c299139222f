// Command simserve runs the simulation service: one daemon, many
// concurrent simulation jobs, each isolated in its own msg world.
//
//	simserve -addr :8420                 # serve
//	simserve -bench                      # load test an in-process server
//	simserve -bench -target http://host  # load test a running daemon
//
// The bench mode is the service's throughput ruler: it keeps -conc
// jobs in flight until -jobs have finished, then reports jobs/sec and
// the p50/p99 submit-to-terminal latency -- the service-tier analogue
// of the paper's Gflops headline, with the box's job throughput as
// the figure of merit.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/simserve"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8420", "listen address (:0 picks a port)")
	workers := flag.Int("workers", 4, "concurrently running worlds")
	queue := flag.Int("queue", 256, "admitted-but-not-started job cap (beyond it: HTTP 429)")
	maxBodies := flag.Int("maxbodies", 1_000_000, "per-job body cap")
	maxNP := flag.Int("maxnp", 64, "per-job rank cap")
	watchdog := flag.Duration("watchdog", 30*time.Second, "per-job stall watchdog quiet period (negative = off)")
	bench := flag.Bool("bench", false, "run the load driver instead of serving")
	target := flag.String("target", "", "bench an already-running daemon at this base URL (default: in-process server)")
	benchJobs := flag.Int("jobs", 192, "bench: total jobs to run")
	benchConc := flag.Int("conc", 64, "bench: jobs kept in flight")
	n := flag.Int("n", 500, "bench: bodies per job")
	np := flag.Int("np", 2, "bench: ranks per job")
	steps := flag.Int("steps", 1, "bench: timesteps per job")
	flag.Parse()
	if _, err := (cliutil.Flags{N: *n, Procs: *np, Steps: *steps, DTMode: "uniform", Eta: 0.02}).Validate(); err != nil {
		cliutil.Fail("simserve", err)
	}
	if *workers < 1 || *queue < 1 {
		cliutil.Fail("simserve", fmt.Errorf("-workers and -queue must be >= 1"))
	}
	lg := telemetry.NewLogger(os.Stderr, "simserve")
	cfg := simserve.Config{
		Workers: *workers, QueueDepth: *queue,
		MaxBodies: *maxBodies, MaxNP: *maxNP,
		Watchdog: *watchdog, Log: lg,
	}

	if *bench {
		base := *target
		if base == "" {
			m := simserve.New(cfg)
			defer m.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				lg.Error("bench listener failed", "err", err)
				os.Exit(1)
			}
			srv := &http.Server{Handler: simserve.Handler(m)}
			go srv.Serve(ln)
			defer srv.Close()
			base = "http://" + ln.Addr().String()
			fmt.Printf("simserve: bench server on %s\n", base)
		}
		if err := runBench(base, *benchJobs, *benchConc, *n, *np, *steps); err != nil {
			lg.Error("bench failed", "err", err)
			os.Exit(1)
		}
		return
	}

	m := simserve.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		lg.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: simserve.Handler(m)}
	// The smoke test (scripts/simserve_smoke.sh) greps this line to
	// discover the :0-assigned port.
	fmt.Printf("simserve: listening on %s\n", ln.Addr())
	lg.Info("serving", "addr", ln.Addr().String(), "workers", *workers, "queue", *queue)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case sig := <-stop:
		lg.Info("shutting down", "signal", sig.String())
		srv.Close()
		m.Close()
	case err := <-done:
		lg.Error("server exited", "err", err)
		m.Close()
		os.Exit(1)
	}
}

// runBench keeps conc jobs in flight over HTTP until total have gone
// terminal, then prints throughput and the latency quantiles.
func runBench(base string, total, conc, n, np, steps int) error {
	if total < conc {
		total = conc
	}
	spec, _ := json.Marshal(simserve.Spec{
		Physics: simserve.PhysicsGravity, N: n, NP: np, Steps: steps,
	})
	client := &http.Client{Timeout: 30 * time.Second}

	var mu sync.Mutex
	lat := make([]time.Duration, 0, total)
	var completed, failed, rejected int

	next := make(chan struct{}, total)
	for i := 0; i < total; i++ {
		next <- struct{}{}
	}
	close(next)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range next {
				t0 := time.Now()
				state, err := runOne(client, base, spec)
				d := time.Since(t0)
				mu.Lock()
				switch {
				case err != nil:
					rejected++
				case state == simserve.StateCompleted:
					completed++
					lat = append(lat, d)
				default:
					failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	if completed == 0 {
		return fmt.Errorf("no job completed (%d failed, %d rejected)", failed, rejected)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(p float64) time.Duration {
		i := int(p * float64(len(lat)-1))
		return lat[i].Round(time.Millisecond)
	}
	fmt.Printf("bench: %d jobs (%d in flight), n=%d np=%d steps=%d\n", total, conc, n, np, steps)
	fmt.Printf("bench: %d completed, %d failed, %d rejected in %.2fs\n", completed, failed, rejected, wall.Seconds())
	fmt.Printf("bench: %.1f jobs/sec, latency p50=%v p99=%v\n",
		float64(completed)/wall.Seconds(), q(0.50), q(0.99))
	return nil
}

// runOne submits one job and polls its status to a terminal state.
func runOne(client *http.Client, base string, spec []byte) (simserve.State, error) {
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return "", err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var st simserve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return "", err
	}
	for {
		r, err := client.Get(base + "/jobs/" + st.ID)
		if err != nil {
			return "", err
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return "", fmt.Errorf("status: %d %s", r.StatusCode, bytes.TrimSpace(b))
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return "", err
		}
		if st.State.Terminal() {
			return st.State, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}
