// Follow mode: poll a driver's live -http telemetry endpoint and
// redraw a terminal dashboard each tick -- the mid-run view of the
// same numbers the post-run RunReport tables summarize. The loop ends
// cleanly when the endpoint disappears (the run finished).

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// follow polls addr every interval until the endpoint goes away.
// Returns an error only if the first poll never succeeds.
func follow(addr string, interval time.Duration) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: 5 * time.Second}

	connected := false
	for {
		var series struct {
			Samples []telemetry.Sample `json:"samples"`
		}
		if err := getJSON(client, base+"/series?n=12", &series); err != nil {
			if !connected {
				return fmt.Errorf("cannot reach %s: %w", base, err)
			}
			fmt.Printf("\nendpoint %s gone -- run finished\n", base)
			return nil
		}
		connected = true
		var health struct {
			Status string                  `json:"status"`
			Events []telemetry.HealthEvent `json:"events"`
		}
		getJSON(client, base+"/health", &health) // best-effort: series already proved liveness

		draw(base, series.Samples, health.Status, health.Events)
		time.Sleep(interval)
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// draw clears the terminal and renders the sample table plus the
// health log tail.
func draw(base string, samples []telemetry.Sample, status string, events []telemetry.HealthEvent) {
	fmt.Print("\x1b[H\x1b[2J") // home + clear
	fmt.Printf("perfreport -follow %s    %s    health: %s\n\n",
		base, time.Now().Format("15:04:05"), statusWord(status))

	if len(samples) == 0 {
		fmt.Println("no samples yet (waiting for the first completed step)")
	} else {
		fmt.Printf("%6s %9s %9s %11s %8s %7s %7s %9s\n",
			"step", "step_ms", "Gflops", "energy", "drift", "active", "imbal", "MB sent")
		for _, s := range samples {
			drift := "-"
			energy := "-"
			if s.Energy != 0 || s.EnergyDrift != 0 {
				energy = fmt.Sprintf("%.5g", s.Energy)
				drift = fmt.Sprintf("%.2e", s.EnergyDrift)
			}
			fmt.Printf("%6d %9.1f %9.2f %11s %8s %7.3f %7.2f %9.2f\n",
				s.Step, s.StepMs, s.FlopsRate/1e9, energy, drift,
				s.ActiveFraction, s.Imbalance, float64(s.Bytes)/1e6)
		}
		last := samples[len(samples)-1]
		fmt.Printf("\nlast step: %d bodies, %d interactions, %d msgs, stall p99 %v, walk efficiency %.3f, %d collectives (%d the splitter search), %d cells pushed (%d used)\n",
			last.Bodies, last.Interactions, last.Msgs,
			time.Duration(last.StallP99Ns).Round(time.Microsecond), last.WalkEfficiency, last.Collectives, last.SplitRounds,
			last.Pushed, last.PushUsed)
	}

	fmt.Println()
	if len(events) == 0 {
		fmt.Println("health log: empty")
		return
	}
	fmt.Println("health log (most recent last):")
	tail := events
	if len(tail) > 8 {
		tail = tail[len(tail)-8:]
	}
	for _, e := range tail {
		fmt.Printf("  %s step %-6d %-8s %-14s %s\n",
			e.Time.Format("15:04:05"), e.Step, e.Severity, e.Monitor, e.Message)
	}
}

func statusWord(status string) string {
	if status == "" {
		return "unknown"
	}
	return status
}
