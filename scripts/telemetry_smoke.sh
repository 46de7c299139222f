#!/bin/sh
# Telemetry smoke test: boot treebench with a live -http endpoint,
# curl the routes a monitoring stack would scrape, and verify known
# series names appear. Fails on any missing route or series.
set -eu
cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
trap 'kill $PID 2>/dev/null || true; rm -rf "$OUT"' EXIT INT TERM

go build -o "$OUT/treebench" ./cmd/treebench

# Enough steps to keep the run alive while we scrape; block stepping
# exercises the active-fraction and rung-occupancy series too.
"$OUT/treebench" -n 12000 -procs 4 -steps 400 -dtmode=block -http=127.0.0.1:0 \
	>"$OUT/stdout" 2>"$OUT/stderr" &
PID=$!

# The driver prints the resolved :0 port on stdout.
ADDR=
for i in $(seq 1 50); do
	ADDR=$(sed -n 's/^telemetry: listening on //p' "$OUT/stdout")
	[ -n "$ADDR" ] && break
	kill -0 $PID 2>/dev/null || { echo "treebench died before listening"; cat "$OUT/stderr"; exit 1; }
	sleep 0.2
done
[ -n "$ADDR" ] || { echo "no 'telemetry: listening on' line"; cat "$OUT/stdout"; exit 1; }

fetch() {
	# curl when present, else wget (CI images vary).
	if command -v curl >/dev/null 2>&1; then
		curl -sf --max-time 10 "http://$1"
	else
		wget -qO- -T 10 "http://$1"
	fi
}

# The telemetry_* gauges appear with the first assembled sample;
# poll until the initial force evaluation completes.
echo "scraping http://$ADDR"
ok=
for i in $(seq 1 120); do
	fetch "$ADDR/metrics" >"$OUT/metrics" || true
	if grep -q 'telemetry_step_ms' "$OUT/metrics"; then ok=1; break; fi
	kill -0 $PID 2>/dev/null || { echo "treebench exited before the first sample"; cat "$OUT/stderr"; exit 1; }
	sleep 0.5
done
[ -n "$ok" ] || { echo "missing telemetry_step_ms in /metrics"; cat "$OUT/metrics"; exit 1; }
grep -q '# TYPE telemetry_samples counter' "$OUT/metrics" || { echo "missing typed counter in /metrics"; exit 1; }
grep -q 'telemetry_walk_efficiency' "$OUT/metrics" || { echo "missing telemetry_walk_efficiency in /metrics"; exit 1; }
grep -q 'telemetry_split_rounds' "$OUT/metrics" || { echo "missing telemetry_split_rounds in /metrics"; exit 1; }
grep -q 'telemetry_collectives_per_step' "$OUT/metrics" || { echo "missing telemetry_collectives_per_step in /metrics"; exit 1; }
grep -q 'telemetry_pushed' "$OUT/metrics" || { echo "missing telemetry_pushed in /metrics"; exit 1; }
grep -q 'telemetry_push_used' "$OUT/metrics" || { echo "missing telemetry_push_used in /metrics"; exit 1; }
grep -q 'telemetry_push_hit_rate' "$OUT/metrics" || { echo "missing telemetry_push_hit_rate in /metrics"; exit 1; }

# The stepper has occupied its rungs once the first block step is in:
# poll until the live report says so.
for i in $(seq 1 120); do
	fetch "$ADDR/report" >"$OUT/report"
	grep -q '"rung_occupancy"' "$OUT/report" && break
	kill -0 $PID 2>/dev/null || { echo "treebench exited before its first step"; cat "$OUT/stderr"; exit 1; }
	sleep 0.5
done
grep -q '"command": "treebench"' "$OUT/report" || { echo "bad /report"; cat "$OUT/report"; exit 1; }
grep -q '"flops_per_interaction": 38' "$OUT/report" || { echo "/report missing flop constants"; exit 1; }
grep -q '"walk_efficiency"' "$OUT/report" || { echo "/report missing walk_efficiency"; exit 1; }
grep -q '"split_rounds"' "$OUT/report" || { echo "/report missing split_rounds"; exit 1; }
grep -q '"collectives_per_step"' "$OUT/report" || { echo "/report missing collectives_per_step"; exit 1; }
grep -q '"push_used"' "$OUT/report" || { echo "/report missing push_used"; exit 1; }
grep -q '"push_hit_rate"' "$OUT/report" || { echo "/report missing push_hit_rate"; exit 1; }
grep -q '"stepping"' "$OUT/report" || { echo "/report missing the stepping section mid-run"; exit 1; }
grep -q '"rung_occupancy"' "$OUT/report" || { echo "/report missing rung_occupancy"; exit 1; }

fetch "$ADDR/series?n=3" >"$OUT/series"
grep -q '"flops_rate"' "$OUT/series" || { echo "bad /series"; cat "$OUT/series"; exit 1; }
grep -q '"collectives_per_step"' "$OUT/series" || { echo "/series missing collectives_per_step"; exit 1; }
grep -q '"push_used"' "$OUT/series" || { echo "/series missing push_used"; exit 1; }

fetch "$ADDR/health" >"$OUT/health"
grep -q '"status"' "$OUT/health" || { echo "bad /health"; cat "$OUT/health"; exit 1; }

kill $PID 2>/dev/null || true
wait $PID 2>/dev/null || true
echo "telemetry smoke: ok"
