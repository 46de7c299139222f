package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/simserve"
)

// The serve-mix protocol: a closed loop of serveClients keep-alive
// connections, each keeping jobsInFlight jobs outstanding and polling
// them every pollEvery, against a service left at its defaults (4
// workers, so 8 in flight exercises admission, batching and queueing).
const (
	serveClients = 2
	jobsInFlight = 4
	pollEvery    = 5 * time.Millisecond
	warmJobs     = 8
	seedCycle    = 10 // Spec.Seed cycles over this many values per class
	jobTimeout   = 60 * time.Second
)

// wireSpec, wireStatus and wireResult are the benchmark's own copy of
// the service's JSON wire: the benchmark speaks HTTP to the service
// and shares no types with it.
type wireSpec struct {
	Physics string `json:"physics"`
	N       int    `json:"n"`
	NP      int    `json:"np"`
	Steps   int    `json:"steps"`
	DTMode  string `json:"dtmode,omitempty"`
	Seed    int64  `json:"seed"`
}

type wireResult struct {
	ForcesHash string  `json:"forces_hash"`
	WallMs     float64 `json:"wall_ms"`
}

type wireStatus struct {
	ID        string      `json:"id"`
	State     string      `json:"state"`
	Error     string      `json:"error"`
	Result    *wireResult `json:"result"`
	Submitted time.Time   `json:"submitted"`
	Started   *time.Time  `json:"started"`
	Finished  *time.Time  `json:"finished"`
}

// jobClass is one entry of the round-robin mix.
type jobClass struct {
	name string
	spec wireSpec
}

func serveMix(quick bool) []jobClass {
	n, nv := 4000, 400
	if quick {
		n, nv = 500, 50
	}
	return []jobClass{
		{"gravity", wireSpec{Physics: "gravity", N: n, NP: 2, Steps: 1}},
		{"gravity-block", wireSpec{Physics: "gravity", N: n, NP: 2, Steps: 1, DTMode: "block"}},
		{"sph", wireSpec{Physics: "sph", N: n, NP: 2, Steps: 1}},
		{"vortex", wireSpec{Physics: "vortex", N: nv, NP: 2, Steps: 1}},
	}
}

// jobRec is one job as its client saw it.
type jobRec struct {
	class                 int
	post, posted, noticed time.Time // POST written, POST answered, first poll that saw a terminal state
	status                wireStatus
	polls                 int
	pollTime, reportTime  time.Duration
	err                   error
}

func (j *jobRec) latency() time.Duration { return j.noticed.Sub(j.post) }

// server is one in-process service behind a real loopback listener.
type server struct {
	base    string
	srv     *http.Server
	served  chan error
	classes []jobClass
	seed    int64
	setupS  float64 // seconds at the witness's reference speed
	rawSetS float64 // seconds as measured

	mu     sync.Mutex
	hashes map[[2]int]string // (class, seed index) -> forces_hash of its first completion
	heapMB float64
}

// startServe is the service's set-up: manager, handler, listener, and
// warmJobs jobs (two of each class) run to completion.
func startServe(seed int64, quick bool, rec *recorder) (*server, error) {
	before := takeProbe()
	cpu0, t0 := cpuSeconds(), time.Now()
	// The service logs every job to slog's default logger; the records
	// are still formatted (that cost is the service's), only dropped.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		base:    "http://" + ln.Addr().String(),
		srv:     &http.Server{Handler: simserve.Handler(simserve.New(simserve.Config{}))},
		served:  make(chan error, 1),
		classes: serveMix(quick),
		seed:    seed,
		hashes:  make(map[[2]int]string),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	for _, j := range s.drive(0, 0, warmJobs, nil) {
		if j.err != nil {
			s.stop()
			return nil, fmt.Errorf("warm-up job: %w", j.err)
		}
	}
	s.rawSetS = time.Since(t0).Seconds()
	s.setupS, _, _ = atRefSpeed(s.rawSetS, cpuSeconds()-cpu0, runtime.GOMAXPROCS(0), before.mid(takeProbe()))
	return s, nil
}

// stop closes the listener and every connection and waits for the
// accept loop to return.
func (s *server) stop() {
	s.srv.Close()
	<-s.served
}

// drive runs the closed loop: jobs are numbered from first, job i is
// class i%len(classes) with seed index (i/len(classes))%seedCycle, so
// every (class, seed) comes round again after len(classes)*seedCycle
// jobs and must then give the same forces_hash. Submission stops after
// seconds (or after exactly fixed jobs when fixed > 0); every job
// submitted is followed to a terminal state.
func (s *server) drive(first int, seconds float64, fixed int, rec *recorder) []jobRec {
	var (
		mu   sync.Mutex
		next int
		out  []jobRec
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if fixed > 0 && next >= fixed {
			return 0, false
		}
		if fixed == 0 && time.Since(t0).Seconds() >= seconds {
			return 0, false
		}
		next++
		return first + next - 1, true
	}
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			// One connection per client: the transport may open no second.
			cl := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: jobTimeout}
			defer cl.CloseIdleConnections()
			type flight struct {
				rec *jobRec
				idx int
			}
			var flying []flight
			open := true
			for open || len(flying) > 0 {
				for open && len(flying) < jobsInFlight {
					i, ok := take()
					if !ok {
						open = false
						break
					}
					j := s.submit(cl, i, lane, rec)
					if j.err != nil {
						mu.Lock()
						out = append(out, *j)
						mu.Unlock()
						continue
					}
					flying = append(flying, flight{j, i})
				}
				time.Sleep(pollEvery)
				still := flying[:0]
				for _, f := range flying {
					if !s.poll(cl, f.rec, f.idx, lane, rec) {
						still = append(still, f)
						continue
					}
					mu.Lock()
					out = append(out, *f.rec)
					mu.Unlock()
				}
				flying = still
			}
		}(c)
	}
	wg.Wait()
	return out
}

func (s *server) submit(cl *http.Client, i, lane int, rec *recorder) *jobRec {
	class := i % len(s.classes)
	spec := s.classes[class].spec
	spec.Seed = s.seed*1000 + int64(i/len(s.classes)%seedCycle) + 1
	body, _ := json.Marshal(spec) // a struct of scalars cannot fail to marshal
	j := &jobRec{class: class, post: time.Now()}
	resp, err := cl.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err == nil {
		err = decode(resp, http.StatusAccepted, &j.status)
	}
	j.posted = time.Now()
	j.err = err
	rec.add("simserve.submit", 0, lane, i+1, j.post, j.posted)
	return j
}

// poll asks for the job's status once and reports whether the job is
// finished with (terminal state seen, timed out, or the GET failed).
func (s *server) poll(cl *http.Client, j *jobRec, i, lane int, rec *recorder) bool {
	t0 := time.Now()
	resp, err := cl.Get(s.base + "/jobs/" + j.status.ID)
	if err == nil {
		err = decode(resp, http.StatusOK, &j.status)
	}
	now := time.Now()
	j.polls++
	j.pollTime += now.Sub(t0)
	rec.add("simserve.poll", 0, lane, i+1, t0, now)
	switch {
	case err != nil:
		j.err = err
	case j.status.State == "completed":
		j.err = s.checkCompleted(j, i)
	case j.status.State == "failed" || j.status.State == "cancelled":
		j.err = fmt.Errorf("job %s %s: %s", j.status.ID, j.status.State, j.status.Error)
	case now.Sub(j.post) > jobTimeout:
		j.err = fmt.Errorf("job %s still %s after %v", j.status.ID, j.status.State, jobTimeout)
	default:
		return false
	}
	j.noticed = now
	if rec != nil {
		rec.add("simserve.job", 0, lane, i+1, j.post, now)
		if j.err == nil {
			j.reportTime, j.err = s.fetchReport(cl, j.status.ID)
		}
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.mu.Lock()
		s.heapMB = max(s.heapMB, float64(m.HeapInuse)/(1<<20))
		s.mu.Unlock()
	}
	return true
}

// checkCompleted holds a completed job to the service's contract: a
// result with a hash, timestamps in order, and the same hash as every
// earlier run of the same (class, seed).
func (s *server) checkCompleted(j *jobRec, i int) error {
	st := j.status
	if st.Result == nil || st.Result.ForcesHash == "" || st.Started == nil || st.Finished == nil {
		return fmt.Errorf("job %s completed without result, hash or timestamps", st.ID)
	}
	key := [2]int{j.class, i / len(s.classes) % seedCycle}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.hashes[key]; ok && prev != st.Result.ForcesHash {
		return fmt.Errorf("job %s (%s, seed index %d): forces_hash %s, an earlier run gave %s",
			st.ID, s.classes[j.class].name, key[1], st.Result.ForcesHash, prev)
	}
	s.hashes[key] = st.Result.ForcesHash
	return nil
}

// fetchReport reads the finished job's RunReport (traced run only).
func (s *server) fetchReport(cl *http.Client, id string) (time.Duration, error) {
	t0 := time.Now()
	resp, err := cl.Get(s.base + "/jobs/" + id + "/report")
	if err == nil {
		var report map[string]any
		err = decode(resp, http.StatusOK, &report)
	}
	return time.Since(t0), err
}

var completedLine = regexp.MustCompile(`(?m)^simserve_jobs_completed(?:\{[^}]*\})?\s+([0-9.e+]+)`)

// completedCount reads the service's own completed-jobs counter from
// GET /metrics.
func (s *server) completedCount() (int, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	m := completedLine.FindSubmatch(text)
	if m == nil {
		return 0, fmt.Errorf("/metrics has no simserve_jobs_completed line")
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	return int(v), err
}

// decode reads a JSON response of the wanted status; anything else
// (429, 5xx, a malformed body) is an error.
func decode(resp *http.Response, want int, into any) error {
	// Drained to EOF before closing, or the transport drops the
	// connection instead of keeping it alive for the next request.
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body) // a failed drain only costs the connection
		resp.Body.Close()
	}()
	if resp.StatusCode != want {
		text, _ := io.ReadAll(io.LimitReader(resp.Body, 200)) // best effort: the status code is the error
		return fmt.Errorf("%s %s: HTTP %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(text))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
