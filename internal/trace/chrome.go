// Chrome trace_event export: a Run serializes to the JSON Array
// Format understood by chrome://tracing and Perfetto
// (ui.perfetto.dev), so a parallel treecode run opens as per-rank
// timelines with phase spans and message markers.
//
// Mapping: rank -> pid (one "process" per rank, named "rank N"), with
// every event on tid 0, the rank's one timeline: a rank is one
// goroutine. Spans are "X" complete events; instants and comm events
// are "i" instants with the peer rank and byte size in args.
// Timestamps are microseconds since the run epoch, as the format
// requires.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// WriteChromeTrace serializes the run to w in the Chrome trace_event
// JSON Array Format.
func (r *Run) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	put := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	for rank := 0; rank < r.Size(); rank++ {
		put(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"rank %d"}}`, rank, rank))
		put(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":0,"args":{"name":"phases"}}`, rank))
	}
	if d := r.Dropped(); d > 0 {
		// Stamp the loss into the export itself: a timeline with holes
		// must say so where the person reading it will look.
		put(fmt.Sprintf(`{"name":"trace_dropped_events","ph":"M","pid":0,"tid":0,"args":{"dropped":%d}}`, d))
	}
	for _, ev := range r.Events() {
		ts := float64(ev.Start) / 1e3
		switch ev.Kind {
		case KindSpan:
			put(fmt.Sprintf(`{"name":%s,"ph":"X","pid":%d,"tid":0,"ts":%.3f,"dur":%.3f}`,
				quote(ev.Name), ev.Rank, ts, float64(ev.Dur)/1e3))
		case KindInstant:
			put(fmt.Sprintf(`{"name":%s,"ph":"i","s":"t","pid":%d,"tid":0,"ts":%.3f}`,
				quote(ev.Name), ev.Rank, ts))
		case KindSend:
			put(fmt.Sprintf(`{"name":%s,"ph":"i","s":"t","pid":%d,"tid":0,"ts":%.3f,"args":{"dir":"send","peer":%d,"bytes":%d}}`,
				quote("send "+ev.Name), ev.Rank, ts, ev.Peer, ev.Bytes))
		case KindRecv:
			put(fmt.Sprintf(`{"name":%s,"ph":"i","s":"t","pid":%d,"tid":0,"ts":%.3f,"args":{"dir":"recv","peer":%d,"bytes":%d}}`,
				quote("recv "+ev.Name), ev.Rank, ts, ev.Peer, ev.Bytes))
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteChromeFile writes the trace to path.
func (r *Run) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quote JSON-escapes a name. Phase labels are plain ASCII identifiers,
// so escaping quotes and backslashes suffices.
func quote(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return `"` + s + `"`
}
