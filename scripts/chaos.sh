#!/bin/sh
# Chaos soak for the message runtime's failure containment: drive
# treebench -- that is, internal/runner, the one function every driver
# and the service run a world through, with cliutil.Obs turning its
# *msg.WorldError into exit 3 -- under deterministic fault injection and
# assert that every run either completes cleanly (exit 0) or ends in a
# structured world abort (exit 3) -- never a hang (the timeout's exit
# 124) and never an uncontained crash (exit 2). Seeds are fixed, so a
# failure here is replayable with the printed command line.
#
# Usage: scripts/chaos.sh [quick|full]   (default: full)
set -eu
cd "$(dirname "$0")/.."

mode="${1:-full}"
case "$mode" in
quick) seeds="1 2 3" ;;
full) seeds="1 2 3 4 5" ;;
*)
	echo "usage: $0 [quick|full]" >&2
	exit 2
	;;
esac

# Binary and captured stderr live in one mktemp directory, removed on
# any exit.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
bin="$tmp/treebench"
err="$tmp/stderr"
go build -o "$bin" ./cmd/treebench

runs=0
aborts=0
cleans=0

# run_one CMD...: execute one injected run and bucket its exit status.
run_one() {
	runs=$((runs + 1))
	rc=0
	timeout 120 "$@" >/dev/null 2>"$err" || rc=$?
	case "$rc" in
	0)
		cleans=$((cleans + 1))
		;;
	3)
		# Contained failure: the stderr must carry the
		# structured report, not a raw panic trace.
		if ! grep -q "msg: world aborted" "$err"; then
			echo "FAIL (exit 3 without a WorldError): $*" >&2
			cat "$err" >&2
			exit 1
		fi
		aborts=$((aborts + 1))
		;;
	124)
		echo "FAIL (hang, killed by timeout): $*" >&2
		exit 1
		;;
	*)
		echo "FAIL (uncontained exit $rc): $*" >&2
		cat "$err" >&2
		exit 1
		;;
	esac
}

for np in 2 8; do
	for spec in \
		"crash=0.002" \
		"stall=0.002,latency=0.02"; do
		for seed in $seeds; do
			run_one "$bin" -n 3000 -procs "$np" -steps 2 -watchdog 2s -chaos "seed=$seed,$spec"
		done
	done
done

# Push pass: faults confined to the walk phase, which is the bound
# allgather, the push exchange and the closing exchange. A crash there
# leaves peers inside the push's all-to-all waiting for a batch that
# never comes, or holding half of one; a stall holds the whole world at
# the exchange every walk depends on. Containment must hold there too.
# A crash report whose rank is in phase "walk" at round 0 died before
# the first request exchange, that is, in the allgather or the push; at
# least one run must show it.
inpush=0
for np in 2 8; do
	for spec in \
		"crash=0.01,crashphase=walk" \
		"stall=0.01,stallphase=walk"; do
		for seed in $seeds; do
			run_one "$bin" -n 3000 -procs "$np" -steps 2 \
				-watchdog 2s -chaos "seed=$seed,$spec,latency=0.02"
			r=$(sed -n 's/.*world aborted by rank \([0-9]*\): msg: injected crash.*/\1/p' "$err" | head -n 1)
			if [ -n "$r" ] && grep -q "rank $r: phase=[^ ]*walk[^ ]* seq=[0-9]* round=0 " "$err"; then
				inpush=$((inpush + 1))
			fi
		done
	done
done
if [ "$inpush" -eq 0 ]; then
	echo "FAIL: no injected crash landed in the walk phase before its first request exchange" >&2
	exit 1
fi

# Block-timestep pass: the hierarchical scheduler multiplies the
# collectives per step (sub-step evaluations, rung allreduces, the
# splits-reuse decision), so one crash/stall spec soaks that schedule
# too -- containment must hold no matter which collective the fault
# lands in.
for np in 2 8; do
	for seed in $seeds; do
		run_one "$bin" -n 3000 -procs "$np" -steps 2 -dtmode=block -eta 0.02 \
			-watchdog 2s -chaos "seed=$seed,crash=0.001,stall=0.001,latency=0.02"
	done
done

echo "chaos: $runs runs, $cleans clean, $aborts contained aborts ($inpush crashes inside the push), 0 hangs"
