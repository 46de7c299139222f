// The one structured logger every command shares. Drivers used to mix
// log.Printf, fmt.Fprintln(os.Stderr, ...) and the watchdog's text
// dump; routing them all through a single slog JSON handler makes
// health events, watchdog dumps and driver chatter interleave as one
// machine-parseable stream (satellite of ISSUE 8).

package telemetry

import (
	"io"
	"log/slog"
)

// NewLogger returns a JSON slog.Logger writing to w, stamped with the
// command name. Drivers call this once at startup and pass the result
// (or a With-derived child) everywhere a logger is accepted.
func NewLogger(w io.Writer, command string) *slog.Logger {
	h := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: slog.LevelInfo})
	return slog.New(h).With("cmd", command)
}
