#!/usr/bin/env bash
# The benchmark's own repeatability check: two sets of R runs of every
# workload on the current tree, each run with another seed, as the
# driver does it. Prints, per workload and end-to-end metric, each
# set's median and quartile spread and the set-to-set change, against
# the metric's bound in BENCHMARK.json; exits non-zero on any breach.
# The driver holds setup_s to the set-to-set rule only; a spread of it
# beyond the bound is marked "spread>bound" and is not a breach.
#   bash benchmark/repeat.sh [R=10] [seconds=run_seconds]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${1:-10}"
seconds="${2:-$(python3 -c "import json;print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")}"
out="$here/out/repeat"
rm -rf "$out"
mkdir -p "$out"
workloads=$(python3 -c "import json;print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))")
for set in 1 2; do
	for w in $workloads; do
		for i in $(seq "$runs"); do
			bash "$here/run.sh" --workload "$w" --seed $((set * 1000 + i)) --seconds "$seconds" --trace 0 >"$out/last.txt"
			tail -n 1 "$out/last.txt" >>"$out/set$set.$w.jsonl"
			sed -n 's/^as-measured //p' "$out/last.txt" >>"$out/set$set.$w.raw.jsonl"
		done
	done
done
python3 - "$root/BENCHMARK.json" "$out" <<'PY'
import json, statistics, sys
bench, out = json.load(open(sys.argv[1])), sys.argv[2]
breaches = 0
print(f"{'workload':16} {'metric':12} {'median 1':>12} {'spread 1':>9} {'median 2':>12} {'spread 2':>9} {'worse by':>9} {'bound':>6}")
for w in (w["name"] for w in bench["workloads"]):
    sets = [[json.loads(l) for l in open(f"{out}/set{s}.{w}.jsonl")] for s in (1, 2)]
    for runs in sets:
        for r in runs:
            if not r["correct"] or r["failed"]:
                print(f"{w}: a run failed its checks: {r['failed']}/{r['attempted']}")
                breaches += 1
    for m in bench["end_to_end"]:
        med, spread = [], []
        for runs in sets:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med.append(statistics.median(vals))
            spread.append((q3 - q1) / med[-1])
        worse = (med[1] - med[0]) / med[0] * (1 if m["better"] == "lower" else -1)
        wide = max(spread) > m["bound"]
        bad = worse > m["bound"] or (wide and m["name"] != "setup_s")
        breaches += bad
        mark = "  BREACH" if bad else "  spread>bound" if wide else ""
        print(f"{w:16} {m['name']:12} {med[0]:12.4f} {spread[0]:9.1%} {med[1]:12.4f} {spread[1]:9.1%} {worse:+9.1%} {m['bound']:6.0%}{mark}")
print()
print("as measured (not gated):")
for w in (w["name"] for w in bench["workloads"]):
    sets = [[json.loads(l) for l in open(f"{out}/set{s}.{w}.raw.jsonl")] for s in (1, 2)]
    for name in sorted(sets[0][0]):
        med, spread = [], []
        for runs in sets:
            vals = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med.append(statistics.median(vals))
            spread.append((q3 - q1) / med[-1])
        print(f"{w:16} {name:12} {med[0]:12.4f} {spread[0]:9.1%} {med[1]:12.4f} {spread[1]:9.1%} {(med[1] - med[0]) / med[0]:+9.1%}")
sys.exit(1 if breaches else 0)
PY
