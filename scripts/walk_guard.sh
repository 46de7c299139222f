#!/bin/sh
# Structural guard on the distributed step: counts from one RunReport,
# not timings, so it holds on any machine. treebench at N=10000 on 4
# ranks must be pushed what its walks open: no request rounds in a
# force evaluation (behind the push a walk that misses a cell aborts
# the world, so there is no round to tolerate) and at most 0.1 rewalked
# cell visits (missed first attempts plus discovery descents) per
# completed-walk visit. And a warm step
# must cost what it is designed to: the splitters found in the one
# allgather, which also checks the predicted key domain, four
# collectives in all (the pushed walk ends without a vote), and the
# bodies sent only where the splitter windows say they can be (fewer
# than the 12 batches of every pair). A change that sends the walk back
# to discover -> ask -> wait (6 rounds and one rewalked visit per useful
# one here), the splitter search back to several collectives, a fifth
# collective into the step (the termination vote or the box allreduce
# back, or a domain that misses its prediction), or the body exchange
# back to every pair, fails without needing injected latency to show
# it. The push accounting is held too: on every rank
# some pushed cell is used and none is used that was not pushed, and
# with no request in the run every import was pushed -- Σ pushed is
# Σ imported cells over all four evaluations (the report's remote_cells
# is the last one's, so each rank's must be at most its pushed count).
set -eu
cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT INT TERM

# A rank's "rounds", "split_rounds" and "collectives_per_step" in the
# report are those of its last step: the third, since the first after a
# first evaluation re-weights every body and searches in full.
go run ./cmd/treebench -n 10000 -procs 4 -steps 3 -metrics "$OUT/report.json" >/dev/null

# The report is indented JSON, one field per line, totals before ranks.
awk -F'[:,]' '
	/"Traversals"/ && !trav { trav = $2 + 0 }
	/"Rewalked"/ && !seen  { rew = $2 + 0; seen = 1 }
	/"rounds"/             { ranks++; if ($2 + 0 > rounds) rounds = $2 + 0 }
	/"split_rounds"/       { splits++; if ($2 + 0 > most) most = $2 + 0 }
	/"collectives_per_step"/ && !colls { colls = $2 + 0 }
	/"Requests"/ && !reqseen { reqs = $2 + 0; reqseen = 1 }
	/"remote_cells"/       { remote[++nremote] = $2 + 0 }
	/"pushed"/             { pushed[++npushed] = $2 + 0 }
	/"push_used"/          { used[++nused] = $2 + 0 }
	/"body_batches"/       { nbatches++; batches += $2 + 0 }
	END {
		if (!trav || !seen || ranks != 4 || splits != 4 || !colls || !reqseen || nremote != 4 || npushed != 4 || nused != 4 || nbatches != 4) { print "walk guard: could not read the report"; exit 1 }
		printf "rewalked/traversals = %d/%d = %.2f\n", rew, trav, rew / trav
		if (rew > 0.1 * trav) { print "walk guard: more than 0.1 rewalked visits per completed-walk visit"; exit 1 }
		printf "request rounds per evaluation = %d\n", rounds
		if (rounds > 0) { print "walk guard: a rank ran " rounds " request rounds in an evaluation, want 0"; exit 1 }
		printf "splitter search = %d collectives\n", most
		if (most != 1) { print "walk guard: the splitter search of a warm step took " most " collectives, want 1"; exit 1 }
		printf "collectives per step = %d\n", colls
		if (colls > 4) { print "walk guard: a warm step took " colls " collectives, want at most 4"; exit 1 }
		printf "body batches sent = %d of 12\n", batches
		if (batches >= 12) { print "walk guard: a warm step sent " batches " body batches, every pair: the planned exchange did not engage"; exit 1 }
		for (r = 1; r <= 4; r++) {
			printf "rank %d: pushed %d, used %d, imported %d in the last evaluation\n", r - 1, pushed[r], used[r], remote[r]
			if (used[r] <= 0 || used[r] > pushed[r]) { print "walk guard: rank " r - 1 " used " used[r] " of " pushed[r] " pushed cells, want 0 < used <= pushed"; exit 1 }
			if (remote[r] > pushed[r]) { print "walk guard: rank " r - 1 " imported " remote[r] " cells in one evaluation but was pushed " pushed[r] " in all"; exit 1 }
		}
		printf "requests = %d (every import pushed)\n", reqs
		if (reqs != 0) { print "walk guard: " reqs " cells were requested, want every import pushed"; exit 1 }
	}' "$OUT/report.json"
