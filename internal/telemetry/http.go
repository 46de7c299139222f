// The HTTP debug endpoint: the routes a simulation service would
// mount per world, served here by every driver under -http=:addr.
//
//	/            route index (text)
//	/metrics     Prometheus text exposition of the metrics Registry
//	/series      JSON time-series ring (?n=K limits to the newest K)
//	/health      JSON health-event log + liveness verdict
//	/report      live mid-run RunReport (same schema as -metrics out.json)
//	/debug/pprof net/http/pprof profiles
//
// Everything served is built from sampler-owned copies, so handlers
// never touch engine state and are safe while every rank keeps
// running.

package telemetry

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/metrics"
)

// Endpoint is a live telemetry HTTP server bound to one Sampler.
type Endpoint struct {
	Addr string // actual listen address (resolves ":0")
	srv  *http.Server
	ln   net.Listener
}

// Handler returns the telemetry route mux for s. Usable standalone
// (tests, or an embedding service that owns its own server).
//
// A nil Sampler gets a handler that answers 503 on every route: the
// /health route used to tolerate nil while /series and /metrics
// dereferenced it, so whether a disabled endpoint answered or crashed
// depended on which route was hit first. One uniform 503 keeps a
// service that mounts a per-job handler before the job's sampler
// exists honest.
func Handler(s *Sampler) http.Handler {
	if s == nil {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "telemetry disabled", http.StatusServiceUnavailable)
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "telemetry endpoint (%s)\n\n", s.command())
		fmt.Fprint(w, "/metrics      Prometheus text exposition\n")
		fmt.Fprint(w, "/series?n=K   per-step time-series JSON (newest K, default all)\n")
		fmt.Fprint(w, "/health       health events + liveness JSON\n")
		fmt.Fprint(w, "/report       live RunReport JSON\n")
		fmt.Fprint(w, "/debug/pprof  pprof profiles\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, s.registry())
	})
	mux.HandleFunc("/series", func(w http.ResponseWriter, r *http.Request) {
		// strconv.Atoi, not Sscanf: "5x" must be a 400, not a silent 5,
		// and a negative count is a caller bug worth surfacing.
		n := 0
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, fmt.Sprintf("bad n=%q (want a non-negative integer)", q), http.StatusBadRequest)
				return
			}
			n = v
		}
		writeJSON(w, struct {
			Samples []Sample `json:"samples"`
		}{s.Samples(n)})
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		// A pull-only deployment has no watcher goroutine; evaluate
		// liveness on inspection so a flatlined run cannot hide.
		s.health.checkProgress()
		events := s.Events()
		status := "ok"
		for _, ev := range events {
			if ev.Severity == SeverityCritical {
				status = "critical"
				break
			}
			status = "warn"
		}
		writeJSON(w, struct {
			Status string        `json:"status"`
			Events []HealthEvent `json:"events"`
		}{status, events})
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		rep := s.LiveReport()
		if rep == nil {
			http.Error(w, "telemetry disabled", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the endpoint on addr (":0" picks a free port; the
// chosen address is in Endpoint.Addr). The server runs until Close.
func Serve(addr string, s *Sampler, lg *slog.Logger) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	ep := &Endpoint{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: Handler(s)},
		ln:   ln,
	}
	go func() {
		if err := ep.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			if lg == nil {
				lg = slog.Default()
			}
			lg.Error("telemetry: http server failed", "addr", ep.Addr, "err", err)
		}
	}()
	return ep, nil
}

// Close shuts the endpoint down. Nil-safe.
func (e *Endpoint) Close() {
	if e == nil {
		return
	}
	e.srv.Close()
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// command and registry tolerate a nil Sampler so Handler(nil) serves
// honest emptiness instead of panicking.
func (s *Sampler) command() string {
	if s == nil {
		return "disabled"
	}
	return s.cfg.Command
}

func (s *Sampler) registry() *metrics.Registry {
	if s == nil {
		return nil
	}
	return s.cfg.Registry
}
