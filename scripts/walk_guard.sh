#!/bin/sh
# Structural guard on the distributed step: counts from one RunReport,
# not timings, so it holds on any machine. treebench at N=10000 on 4
# ranks must spend at most 1.5 rewalked cell visits (missed first
# attempts plus discovery descents) per completed-walk visit, finish
# each force evaluation in 6 request rounds, and find the splitters of
# a decomposition in at most 5 collectives (4, plus the reuse check of
# a partial evaluation). A change that brings back restarts from the
# root (about 5 rewalked visits per useful one here), adds rounds, or
# returns the splitter search to a collective per key bit fails
# without needing injected latency to show it.
set -eu
cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT INT TERM

# A rank's "rounds" in the report are those of its last evaluation.
go run ./cmd/treebench -n 10000 -procs 4 -steps 1 -metrics "$OUT/report.json" >/dev/null

# The report is indented JSON, one field per line, totals before ranks.
awk -F'[:,]' '
	/"Traversals"/ && !trav { trav = $2 + 0 }
	/"Rewalked"/ && !seen  { rew = $2 + 0; seen = 1 }
	/"rounds"/             { ranks++; if ($2 + 0 != 6) bad = bad " " ($2 + 0) }
	/"split_rounds"/       { splits++; if ($2 + 0 > most) most = $2 + 0 }
	END {
		if (!trav || !seen || ranks != 4 || splits != 4) { print "walk guard: could not read the report"; exit 1 }
		printf "rewalked/traversals = %d/%d = %.2f\n", rew, trav, rew / trav
		if (rew > 1.5 * trav) { print "walk guard: more than 1.5 rewalked visits per completed-walk visit"; exit 1 }
		if (bad != "") { print "walk guard: ranks ran" bad " request rounds per evaluation, want 6"; exit 1 }
		printf "splitter search = %d collectives\n", most
		if (most < 1 || most > 5) { print "walk guard: a splitter search took " most " collectives, want 1 to 5"; exit 1 }
	}' "$OUT/report.json"
