package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// Every route must answer mid-run from sampler-owned copies.
func TestHTTPRoutes(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSampler(Config{NP: 1, Registry: reg, Command: "bench",
		Monitors: MonitorConfig{Log: discard()}})
	defer s.Close()
	reg.Histogram("job_latency_ns").Observe(12345)
	s.Contribute(0, rank(100, 10e6, 5, 1000))

	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	code, index := get(t, srv, "/")
	if code != 200 || !strings.Contains(index, "/series") || !strings.Contains(index, "bench") {
		t.Fatalf("index = %d:\n%s", code, index)
	}

	code, prom := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE telemetry_samples counter",
		"# TYPE telemetry_step_ms gauge",
		"telemetry_step_ms 10",
		"# TYPE job_latency_ns summary",
		`job_latency_ns{quantile="0.99"}`,
		"job_latency_ns_count 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q; got:\n%s", want, prom)
		}
	}

	code, body := get(t, srv, "/series?n=5")
	if code != 200 {
		t.Fatalf("/series = %d", code)
	}
	var series struct {
		Samples []Sample `json:"samples"`
	}
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("/series JSON: %v\n%s", err, body)
	}
	if len(series.Samples) != 1 || series.Samples[0].Interactions != 100 {
		t.Fatalf("/series = %+v", series.Samples)
	}

	code, body = get(t, srv, "/health")
	if code != 200 {
		t.Fatalf("/health = %d", code)
	}
	var health struct {
		Status string        `json:"status"`
		Events []HealthEvent `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/health JSON: %v", err)
	}
	if health.Status != "ok" || len(health.Events) != 0 {
		t.Fatalf("/health = %+v on a healthy run", health)
	}

	code, body = get(t, srv, "/report")
	if code != 200 {
		t.Fatalf("/report = %d", code)
	}
	var rep metrics.RunReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/report JSON: %v", err)
	}
	if rep.Command != "bench" || rep.Totals.Interactions != 100 {
		t.Fatalf("/report = command %q, %d interactions", rep.Command, rep.Totals.Interactions)
	}

	if code, _ := get(t, srv, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
	if code, _ := get(t, srv, "/nope"); code != 404 {
		t.Fatalf("unknown route = %d, want 404", code)
	}
}

// /health must evaluate liveness on inspection, so a pull-only
// deployment (no background watcher is strictly needed) still sees a
// flatlined run go critical.
func TestHealthRouteDetectsFlatline(t *testing.T) {
	s := NewSampler(Config{NP: 1, Monitors: MonitorConfig{
		NoProgress: 20 * time.Millisecond, Log: discard()}})
	defer s.Close()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := get(t, srv, "/health")
		var health struct {
			Status string `json:"status"`
		}
		json.Unmarshal([]byte(body), &health)
		if health.Status == "critical" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/health never went critical: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A nil sampler answers 503 on EVERY route. It used to serve a mix:
// /health guarded the dereference while /series and /metrics would
// have crashed on the first nil-only path they touched -- whether the
// endpoint worked depended on which route was hit first. One uniform
// "telemetry disabled" keeps a service that mounts per-job handlers
// before the job's sampler exists honest.
func TestHandlerNilSampler(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	for _, path := range []string{"/", "/metrics", "/series", "/series?n=5", "/health", "/report", "/debug/pprof/"} {
		code, body := get(t, srv, path)
		if code != 503 {
			t.Errorf("%s on nil sampler = %d, want 503", path, code)
		}
		if !strings.Contains(body, "disabled") {
			t.Errorf("%s on nil sampler: body %q does not say disabled", path, body)
		}
	}
}

// /series?n= takes a non-negative integer and nothing else: Sscanf
// used to accept garbage prefixes ("5x" parsed as 5) and let negative
// values flow into Sampler.Samples.
func TestSeriesQueryValidation(t *testing.T) {
	s := NewSampler(Config{NP: 1, Monitors: MonitorConfig{Log: discard()}})
	defer s.Close()
	for i := 0; i < 3; i++ {
		s.Contribute(0, rank(uint64(100+i), 10e6, 5, 1000))
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	for _, q := range []string{"5x", "-1", "-5", "x", "1.5", "0x10", " 3"} {
		if code, body := get(t, srv, "/series?n="+q); code != 400 {
			t.Errorf("/series?n=%s = %d (%q), want 400", q, code, body)
		}
	}
	for _, tc := range []struct {
		q    string
		want int
	}{{"0", 3}, {"2", 2}, {"100", 3}, {"", 3}} {
		path := "/series"
		if tc.q != "" {
			path += "?n=" + tc.q
		}
		code, body := get(t, srv, path)
		if code != 200 {
			t.Fatalf("%s = %d", path, code)
		}
		var series struct {
			Samples []Sample `json:"samples"`
		}
		if err := json.Unmarshal([]byte(body), &series); err != nil {
			t.Fatalf("%s JSON: %v", path, err)
		}
		if len(series.Samples) != tc.want {
			t.Errorf("%s = %d samples, want %d", path, len(series.Samples), tc.want)
		}
	}
}

// Samples(-1) is pinned as "all buffered", same as 0: the HTTP layer
// rejects negatives before they get here, but direct callers rely on
// max <= 0 meaning everything.
func TestSamplesNegativeMax(t *testing.T) {
	s := NewSampler(Config{NP: 1, Monitors: MonitorConfig{Log: discard()}})
	defer s.Close()
	for i := 0; i < 4; i++ {
		s.Contribute(0, rank(uint64(10+i), 1e6, 1, 10))
	}
	if got := len(s.Samples(-1)); got != 4 {
		t.Fatalf("Samples(-1) = %d samples, want all 4", got)
	}
	if got := len(s.Samples(0)); got != 4 {
		t.Fatalf("Samples(0) = %d samples, want all 4", got)
	}
}

// Serve binds :0, reports the real address, and Close is idempotent
// and nil-safe.
func TestServeAndClose(t *testing.T) {
	s := NewSampler(Config{NP: 1, Monitors: MonitorConfig{Log: discard()}})
	defer s.Close()
	ep, err := Serve("127.0.0.1:0", s, discard())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ep.Addr, ":") || strings.HasSuffix(ep.Addr, ":0") {
		t.Fatalf("Addr = %q, want a resolved port", ep.Addr)
	}
	resp, err := http.Get("http://" + ep.Addr + "/")
	if err != nil {
		t.Fatalf("GET live endpoint: %v", err)
	}
	resp.Body.Close()
	ep.Close()
	var nilEp *Endpoint
	nilEp.Close()
}

// The exposition format itself: typed counters and gauges, histograms
// as summaries.
func TestWritePrometheus(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("reqs_total").Add(7)
	reg.Gauge("temp").Set(1.5)
	h := reg.Histogram("lat_ns")
	h.Observe(100)
	h.Observe(200)

	var b strings.Builder
	WritePrometheus(&b, reg)
	out := b.String()
	for _, want := range []string{
		"# TYPE reqs_total counter\nreqs_total 7\n",
		"# TYPE temp gauge\ntemp 1.5\n",
		"# TYPE lat_ns summary\n",
		"lat_ns_sum 300\n",
		"lat_ns_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}

	b.Reset()
	WritePrometheus(&b, nil)
	if b.Len() != 0 {
		t.Fatalf("nil registry wrote %q", b.String())
	}

	if got := promName("job latency.p99"); got != "job_latency_p99" {
		t.Fatalf("promName = %q", got)
	}
}
