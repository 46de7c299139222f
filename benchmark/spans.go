package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call the harness made into a layer. Parent is the id of
// the span that caused it (0 = none); Op is the step or job number
// every span of one operation shares; Lane is the rank or client it
// ran on. Start and End are offsets from the recorder's epoch.
type span struct {
	ID, Parent int
	Name       string
	Lane, Op   int
	Start, End time.Duration
}

// recorder is the benchmark-owned in-memory span store of the traced
// run. A nil *recorder records nothing, which is the untraced run:
// every method is a nil check and a return.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent, lane, op int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Lane: lane, Op: op,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch),
	})
	return id
}

// timed runs fn inside a span and returns how long it took.
func (r *recorder) timed(name string, parent, lane, op int, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.add(name, parent, lane, op, t0, t1)
	return t1.Sub(t0)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover (children
// are clipped to the parent and overlapping children counted once).
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum time.Duration
	at := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or ui.perfetto.dev): one complete event per span,
// one thread lane per rank or client.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
