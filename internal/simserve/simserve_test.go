package simserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grav"
	"repro/internal/ic"
	"repro/internal/msg"
	"repro/internal/parallel"
	"repro/internal/runner"
)

func discardLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = discardLog()
	}
	m := New(cfg)
	t.Cleanup(m.Close)
	return m
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, j *Job, timeout time.Duration) State {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := j.State(); st.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal after %v (state %s)", j.ID, timeout, j.State())
	return ""
}

// TestGravityJobBitwiseStandalone pins the service's correctness
// contract: a gravity job's final forces are bit-identical to the
// standalone treebench run of the same (n, np, steps, seed). The
// reference below duplicates the driver's rank body independently of
// run.go, so a drift in either copy fails the test.
func TestGravityJobBitwiseStandalone(t *testing.T) {
	const n, np, steps = 600, 4, 2
	m := testManager(t, Config{Workers: 2})
	j, err := m.Submit(Spec{Physics: PhysicsGravity, N: n, NP: np, Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st != StateCompleted {
		t.Fatalf("job ended %s: %s", st, j.Status().Error)
	}
	res := j.Result()
	if res == nil || res.ForcesHash == "" {
		t.Fatalf("completed job has no result/hash: %+v", res)
	}
	if res.Bodies != n {
		t.Fatalf("result bodies = %d, want %d", res.Bodies, n)
	}

	// Standalone reference: the treebench main loop, verbatim.
	global := ic.Plummer(n, 1.0, 42)
	systems := make([]*core.System, np)
	w := msg.NewWorld(np)
	werr := w.RunErr(func(c *msg.Comm) {
		local := core.New(0)
		local.EnableDynamics()
		lo, hi := c.Rank()*n/np, (c.Rank()+1)*n/np
		for i := lo; i < hi; i++ {
			local.AppendFrom(global, i)
		}
		e := parallel.New(c, local, parallel.Config{
			MAC:    grav.MACParams{Kind: grav.MACSalmonWarren, AccelTol: 1e-4, Quad: true},
			Bucket: 16, Eps2: 1e-6,
		})
		e.ComputeForces()
		for s := 0; s < steps; s++ {
			e.Step(1e-3)
		}
		systems[c.Rank()] = e.Sys
	})
	if werr != nil {
		t.Fatalf("reference run aborted: %v", werr)
	}
	if ref := runner.ForcesHash(systems, false); res.ForcesHash != ref {
		t.Fatalf("service forces hash %s != standalone %s", res.ForcesHash, ref)
	}
}

// TestCrashContainment is the tentpole's isolation story: one
// crash-injected job fails with the structured world error while its
// neighbors -- running concurrently in the same process -- complete
// with identical hashes, and the manager keeps accepting work.
func TestCrashContainment(t *testing.T) {
	m := testManager(t, Config{Workers: 4})
	good := Spec{Physics: PhysicsGravity, N: 300, NP: 2, Steps: 1}
	bad := good
	bad.Chaos = "seed=7,crash=1,crashphase=walk"

	jobs := make([]*Job, 0, 9)
	for i := 0; i < 8; i++ {
		j, err := m.Submit(good)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	crasher, err := m.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}

	if st := waitTerminal(t, crasher, 30*time.Second); st != StateFailed {
		t.Fatalf("crash-injected job ended %s, want failed", st)
	}
	if e := crasher.Status().Error; !strings.Contains(e, "injected") {
		t.Fatalf("crash job error %q does not name the injected fault", e)
	}
	var hash string
	for i, j := range jobs {
		if st := waitTerminal(t, j, 30*time.Second); st != StateCompleted {
			t.Fatalf("job %d ended %s: %s", i, st, j.Status().Error)
		}
		h := j.Result().ForcesHash
		if hash == "" {
			hash = h
		} else if h != hash {
			t.Fatalf("job %d hash %s != job 0 hash %s (identical specs)", i, h, hash)
		}
	}

	// The manager survived: a fresh submission still runs to completion.
	after, err := m.Submit(good)
	if err != nil {
		t.Fatalf("submit after crash: %v", err)
	}
	if st := waitTerminal(t, after, 30*time.Second); st != StateCompleted {
		t.Fatalf("post-crash job ended %s", st)
	}
	if h := after.Result().ForcesHash; h != hash {
		t.Fatalf("post-crash hash %s != pre-crash %s", h, hash)
	}
}

// TestSPHAndVortexJobs exercises the other two physics end to end.
func TestSPHAndVortexJobs(t *testing.T) {
	m := testManager(t, Config{Workers: 2})
	specs := []Spec{
		{Physics: PhysicsSPH, N: 200, NP: 2, Steps: 1},
		{Physics: PhysicsVortex, N: 12, NP: 2, Steps: 2},
	}
	for _, sp := range specs {
		j, err := m.Submit(sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Physics, err)
		}
		if st := waitTerminal(t, j, 60*time.Second); st != StateCompleted {
			t.Fatalf("%s job ended %s: %s", sp.Physics, st, j.Status().Error)
		}
		res := j.Result()
		if res.ForcesHash == "" || res.Interactions == 0 {
			t.Fatalf("%s result incomplete: %+v", sp.Physics, res)
		}
		if sp.Physics == PhysicsVortex && res.Bodies != 2*sp.N*vortexCore {
			t.Fatalf("vortex bodies = %d, want %d", res.Bodies, 2*sp.N*vortexCore)
		}
	}
}

// TestCancelQueued cancels a job the single worker has not reached:
// it must go terminal immediately and never run.
func TestCancelQueued(t *testing.T) {
	m := testManager(t, Config{Workers: 1})
	blocker, err := m.Submit(Spec{Physics: PhysicsGravity, N: 4000, NP: 2, Steps: 6})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(Spec{Physics: PhysicsGravity, N: 300, NP: 2, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateCancelled {
		t.Fatalf("queued job state %s after cancel, want cancelled", st)
	}
	if st := waitTerminal(t, blocker, 60*time.Second); st != StateCompleted {
		t.Fatalf("blocker ended %s", st)
	}
	if queued.Result() != nil {
		t.Fatal("cancelled job has a result; it ran anyway")
	}
	// Double-cancel reports the terminal state.
	if err := m.Cancel(queued.ID); err == nil {
		t.Fatal("cancelling a terminal job succeeded")
	}
}

// TestCancelRunning aborts a running world and expects a prompt
// cancelled state, not failed.
func TestCancelRunning(t *testing.T) {
	m := testManager(t, Config{Workers: 1})
	j, err := m.Submit(Spec{Physics: PhysicsGravity, N: 20000, NP: 4, Steps: 50})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", j.State())
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j, 30*time.Second); st != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", st)
	}
}

// TestSubmitRejections covers the 4xx paths: malformed specs and
// queue overload.
func TestSubmitRejections(t *testing.T) {
	m := testManager(t, Config{Workers: 1, QueueDepth: 2, MaxBodies: 10000, MaxNP: 8})
	cases := []Spec{
		{Physics: "magneto", N: 100, NP: 2, Steps: 1},
		{Physics: PhysicsGravity, N: 0, NP: 2, Steps: 1},
		{Physics: PhysicsGravity, N: 100, NP: 0, Steps: 1},
		{Physics: PhysicsGravity, N: 100, NP: 2, Steps: -1},
		{Physics: PhysicsGravity, N: 100, NP: 2, Steps: 1, DTMode: "warp"},
		{Physics: PhysicsGravity, N: 100, NP: 2, Steps: 1, Chaos: "crash=9"},
		{Physics: PhysicsGravity, N: 100000, NP: 2, Steps: 1}, // over MaxBodies
		{Physics: PhysicsGravity, N: 100, NP: 16, Steps: 1},   // over MaxNP
		{Physics: PhysicsVortex, N: 10, NP: 2, Steps: 1, DTMode: "block"},
		{Physics: PhysicsSPH, N: 100, NP: 2, Steps: 1, IC: ICPlummer},
		// NaN fails every comparison, so "dt <= 0" let it through.
		{Physics: PhysicsGravity, N: 100, NP: 2, Steps: 1, DT: math.NaN()},
		{Physics: PhysicsGravity, N: 100, NP: 2, Steps: 1, Tol: math.Inf(1)},
		{Physics: PhysicsGravity, N: 100, NP: 2, Steps: 1, Eta: -5},
		{Physics: PhysicsGravity, N: 100, NP: 2, Steps: 1, DTMode: "block", Eta: math.NaN()},
		{Physics: PhysicsVortex, N: 1 << 62, NP: 2, Steps: 1}, // 8N wraps to 0 bodies
	}
	for i, sp := range cases {
		if _, err := m.Submit(sp); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("case %d (%+v): err = %v, want ErrBadSpec", i, sp, err)
		}
	}
	if got := m.Registry().Counter(MetricRejected).Value(); got != uint64(len(cases)) {
		t.Fatalf("rejected counter = %d, want %d", got, len(cases))
	}

	// Overload: fill the 2-deep queue past capacity with slow jobs.
	long := Spec{Physics: PhysicsGravity, N: 5000, NP: 2, Steps: 5}
	var overloaded bool
	for i := 0; i < 8; i++ {
		if _, err := m.Submit(long); errors.Is(err, ErrOverloaded) {
			overloaded = true
			break
		}
	}
	if !overloaded {
		t.Fatal("queue never rejected with ErrOverloaded")
	}
}

// TestSubmitRacesClose submits from many goroutines while the manager
// closes (run under -race): no submission may send on the closed
// queue, each one is accepted or refused with ErrClosed (or
// ErrOverloaded), and every accepted job reaches a terminal state --
// Close drains the queue, so none is stranded in it.
func TestSubmitRacesClose(t *testing.T) {
	m := New(Config{Workers: 2, QueueDepth: 8, Log: discardLog()})
	spec := Spec{Physics: PhysicsGravity, N: 100, NP: 1, Steps: 0}
	var mu sync.Mutex
	var accepted []*Job
	var wg sync.WaitGroup
	first := make(chan struct{})
	var once sync.Once
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j, err := m.Submit(spec)
				switch {
				case err == nil:
					mu.Lock()
					accepted = append(accepted, j)
					mu.Unlock()
					once.Do(func() { close(first) })
				case errors.Is(err, ErrClosed), errors.Is(err, ErrOverloaded):
				default:
					t.Errorf("submit: %v", err)
				}
			}
		}()
	}
	<-first // close while the submitters are mid-stream
	m.Close()
	wg.Wait()
	if _, err := m.Submit(spec); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	for _, j := range accepted {
		if st := j.State(); !st.Terminal() {
			t.Fatalf("accepted job %s is %s after Close returned", j.ID, st)
		}
	}
}

// TestHTTPAPI drives the full edge through httptest: submit, status,
// per-job telemetry mount, cancel, healthz, metrics, and the error
// statuses.
func TestHTTPAPI(t *testing.T) {
	m := testManager(t, Config{Workers: 2})
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	post := func(body string) (*http.Response, []byte) {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}

	// Submit a small gravity job.
	resp, body := post(`{"physics":"gravity","n":300,"np":2,"steps":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Spec.Seed != 42 {
		t.Fatalf("submit reply %+v: want id and defaulted seed", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}

	// Bad bodies are 400s, not crashes.
	// A retired spec field (evalworkers) is an unknown field.
	for _, bad := range []string{
		`{`,
		`{"physics":"magneto","n":1,"np":1}`,
		`{"bogus":1}`,
		`{"physics":"gravity","n":300,"np":2,"steps":1,"evalworkers":2}`,
	} {
		if resp, b := post(bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q = %d: %s", bad, resp.StatusCode, b)
		}
	}

	// Wait for completion via the status route.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", st.ID, r.StatusCode)
		}
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != StateCompleted || st.Result == nil || st.Result.ForcesHash == "" {
		t.Fatalf("terminal status %+v", st)
	}

	// The per-job telemetry mount answers with the job's own series.
	r, err := http.Get(srv.URL + "/jobs/" + st.ID + "/series?n=4")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"step"`)) {
		t.Fatalf("GET /jobs/{id}/series = %d: %s", r.StatusCode, b)
	}

	// Unknown IDs 404 on every jobs route.
	for _, path := range []string{"/jobs/nope", "/jobs/nope/series"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, r.StatusCode)
		}
	}

	// DELETE on a terminal job is a 409; listing and health stay up.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	r, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE terminal job = %d, want 409", r.StatusCode)
	}

	r, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"completed"`)) {
		t.Fatalf("GET /healthz = %d: %s", r.StatusCode, b)
	}

	r, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(MetricCompleted)) {
		t.Fatalf("GET /metrics = %d: %s", r.StatusCode, b)
	}
}

// goldenHashes is one spec and its forces_hash digests at np = 2, 4, 8.
type goldenHashes struct {
	spec   Spec
	hashes [3]string
}

// checkForcesHashes runs every golden spec at 2, 4 and 8 ranks and
// compares the digests. They are of amd64 arithmetic: the gravity
// list kernels' fused multiply-adds are explicit and mean the same
// bits on any platform, but the rest of the step (EvalSelf, the
// integrator, SPH, the vortex kernels) is plain Go, which arm64 may
// fuse.
func checkForcesHashes(t *testing.T, golden []goldenHashes) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests were captured on amd64")
	}
	m := testManager(t, Config{Workers: 2, MaxNP: 8})
	for _, g := range golden {
		for i, np := range []int{2, 4, 8} {
			sp := g.spec
			sp.NP = np
			j, err := m.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			if st := waitTerminal(t, j, 60*time.Second); st != StateCompleted {
				t.Fatalf("%+v ended %s: %s", sp, st, j.Status().Error)
			}
			if got := j.Result().ForcesHash; got != g.hashes[i] {
				t.Errorf("%s dtmode=%q np=%d: forces hash %s, want %s",
					sp.Physics, sp.DTMode, np, got, g.hashes[i])
			}
		}
	}
}

// TestForcesHashMatchesRestartWalk pins the final positions of the
// vortex jobs, at 2, 4 and 8 ranks, to the digests the commit before
// suspended walks (PR 12, be27d9e: restart-from-root retries,
// multi-probe cell lookup) produced for the same spec. The emitting
// walk builds each interaction list in root-DFS order, the order the
// restart walk had, so not one bit may move. (The gravity and SPH
// digests it also held until PR 17 moved with the gravity kernel and
// are in TestForcesHashPinsKernel; the vortex kernel did not change.
// Nor did these move when walk groups became sink cells, PR 23: with
// 192 particles in 32-body leaves over two ranks or more, no cell above
// a leaf holds at most 64 of them inside a rank's interval, the groups
// are the leaves they were, and the interaction counts stood too
// (129413, 113449, 86201). At 512 particles they move, +29%.) They
// moved once since, when keys.DomainOf snapped the key domain to a
// lattice and a ladder of sizes: the cells are others, so the lists
// are; old -> new in EXPERIMENTS.md "Five collectives". Two moved at
// round-off when a one-particle leaf's moments became exact (its
// centroid the particle, no spread), with every count unchanged;
// old -> new in EXPERIMENTS.md "Float32 lanes".
func TestForcesHashMatchesRestartWalk(t *testing.T) {
	checkForcesHashes(t, []goldenHashes{
		{Spec{Physics: PhysicsVortex, N: 24, Steps: 2},
			[3]string{"eba96f0385ab9849", "73766a0fd7ab7402", "060687841f9b5660"}},
	})
}

// TestForcesHashPinsKernel pins the final forces of every job that
// runs the gravity kernels (gravity uniform and block; SPH with
// self-gravity) to the digests of the current kernel generation:
// grav/kernel.go's float32 Go loops -- coordinates relative to the
// group's box centre, invSqrt32's Newton reciprocal square root, every
// product that feeds a sum an explicit fma32, two accumulator sets per
// target, over a chunk's even and its odd positions, each swept in list
// order and the two folded into float64 every foldK sources -- or their
// AVX2 and AVX-512 pair blocks, which are the same arithmetic bit for
// bit, applied to the lists of the walk groups, sink cells of up to 64
// bodies. The nine digests were re-captured once for the Newton kernels
// (EXPERIMENTS.md "Lanes' reciprocal square root"), once for the
// snapped key domain, which moved the cells under the same kernels
// (EXPERIMENTS.md "Five collectives"), once for the float32 lanes
// (EXPERIMENTS.md "Float32 lanes") and once for the even/odd partial
// sums of the pair blocks (EXPERIMENTS.md "Paired sources"), each time
// with every count unchanged. The three block digests moved once more
// alone, when partial evaluations stopped keeping a stale key domain and
// splits and searched theirs like a full evaluation (EXPERIMENTS.md "One
// decomposition"): the cells and ranks of the sub-steps are others. A
// change to the kernels' operation
// order, fusion or fold, an assembly lane that strays from the Go
// loop, or a list that gains, loses or reorders an entry shows up
// here.
func TestForcesHashPinsKernel(t *testing.T) {
	checkForcesHashes(t, []goldenHashes{
		{Spec{Physics: PhysicsGravity, N: 1500, Steps: 1, Seed: 17},
			[3]string{"9a1188301bbcb99a", "707e2d3e7c5447f9", "c08bac50deb98ff1"}},
		{Spec{Physics: PhysicsGravity, N: 1500, Steps: 1, Seed: 17, DTMode: "block"},
			[3]string{"6d7394e6b4bfba8d", "2cee3dfc0aa2dced", "00c06b5f48ed7ee4"}},
		{Spec{Physics: PhysicsSPH, N: 600, Steps: 1, Seed: 17},
			[3]string{"bb425560eb215cb5", "e7f4b29afc9a79bb", "0f3f8ee9ad03f42e"}},
	})
}
