#!/bin/sh
# Structural guard on the distributed step: counts from one RunReport,
# not timings, so it holds on any machine. treebench at N=10000 on 4
# ranks must be pushed what its walks open: behind the push a walk that
# misses a cell aborts the world (*hotengine.UncoveredWalkError), so the
# run below fails this guard under set -e, and the report has no request
# round, deferral or rewalked visit to read. A warm step must cost what
# it is designed to: the splitters found in the one allgather, which
# also checks the predicted key domain, four collectives in all (the
# pushed walk ends without a vote), and the bodies sent only where the
# splitter windows say they can be (fewer than the 12 batches of every
# pair). A change that sends the splitter search back to several
# collectives, a fifth collective into the step (the termination vote
# or the box allreduce back, or a domain that misses its prediction),
# or the body exchange back to every pair, fails without needing
# injected latency to show it. The push accounting is held too: on
# every rank some pushed cell is used and none is used that was not
# pushed, and every import was pushed: over the run's four evaluations
# a rank imports exactly the cells it is pushed (remote_cells and the
# Pushed counter are both run totals).
set -eu
cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT INT TERM

# A rank's "split_rounds" and "collectives_per_step" in the report are
# those of its last step: the third, since the first after a first
# evaluation re-weights every body and searches in full.
go run ./cmd/treebench -n 10000 -procs 4 -steps 3 -metrics "$OUT/report.json" >/dev/null

# The report is indented JSON, one field per line, totals before ranks:
# the first "Pushed"/"PushUsed" are the totals' counters, the next four
# the ranks'.
awk -F'[:,]' '
	/"split_rounds"/       { splits++; if ($2 + 0 > most) most = $2 + 0 }
	/"collectives_per_step"/ && !colls { colls = $2 + 0 }
	/"remote_cells"/       { remote[++nremote] = $2 + 0 }
	/"Pushed"/             { pushed[npushed++] = $2 + 0 }
	/"PushUsed"/           { used[nused++] = $2 + 0 }
	/"body_batches"/       { nbatches++; batches += $2 + 0 }
	END {
		if (splits != 4 || !colls || nremote != 4 || npushed != 5 || nused != 5 || nbatches != 4) { print "walk guard: could not read the report"; exit 1 }
		printf "splitter search = %d collectives\n", most
		if (most != 1) { print "walk guard: the splitter search of a warm step took " most " collectives, want 1"; exit 1 }
		printf "collectives per step = %d\n", colls
		if (colls > 4) { print "walk guard: a warm step took " colls " collectives, want at most 4"; exit 1 }
		printf "body batches sent = %d of 12\n", batches
		if (batches >= 12) { print "walk guard: a warm step sent " batches " body batches, every pair: the planned exchange did not engage"; exit 1 }
		for (r = 1; r <= 4; r++) {
			printf "rank %d: pushed %d, used %d, imported %d\n", r - 1, pushed[r], used[r], remote[r]
			if (used[r] <= 0 || used[r] > pushed[r]) { print "walk guard: rank " r - 1 " used " used[r] " of " pushed[r] " pushed cells, want 0 < used <= pushed"; exit 1 }
			if (remote[r] != pushed[r]) { print "walk guard: rank " r - 1 " imported " remote[r] " cells but was pushed " pushed[r] ", want every import pushed"; exit 1 }
		}
	}' "$OUT/report.json"
