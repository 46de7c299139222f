#!/bin/sh
# Bounds-check-elimination guard for the interaction kernels' Go loops
# (internal/grav/kernel.go: the kernels' definition everywhere, and the
# production path wherever the AVX2 assembly is not).
#
# Builds the package with -d=ssa/check_bce and compares the checks the
# compiler could NOT eliminate in kernel.go against the committed
# golden (scripts/bce_allow.txt). The golden is aggregated to per-kind
# counts so comment edits don't churn it; any NEW check that survives
# prove -- say a refactor that drops a column's re-slice and puts a
# per-interaction bounds check back into a sweep -- changes a count and
# fails the guard.
#
# What the golden admits: IsSliceInBounds only, the once-per-call
# re-slices of every column to the one shared length (sx[:n] and
# friends at the top of ppGo, m2pQuadGo and EvalSelf). That re-slice is
# what lets prove drop every index check, so there is no IsInBounds
# line: the loops themselves are check-free. There is no tile to carve
# and no seed table to index any more.
#
# Run with -update after a deliberate kernel change to regenerate the
# golden (and say why in the commit).
set -eu
cd "$(dirname "$0")/.."

golden=scripts/bce_allow.txt

actual=$(go build -gcflags='-d=ssa/check_bce' ./internal/grav/ 2>&1 |
	grep -E '^internal/grav/kernel\.go' |
	sed -E 's/^([^:]+):[0-9]+:[0-9]+: Found /\1 /' |
	sort | uniq -c | awk '{printf "%4d %s %s\n", $1, $2, $3}')

if [ "${1:-}" = "-update" ]; then
	printf '%s\n' "$actual" >"$golden"
	echo "bce: regenerated $golden"
	exit 0
fi

if ! printf '%s\n' "$actual" | diff -u "$golden" - >&2; then
	echo "bce: surviving bounds checks in the kernel loops changed" >&2
	echo "bce: inspect with: go build -gcflags='-d=ssa/check_bce' ./internal/grav/" >&2
	echo "bce: if the change is deliberate: sh scripts/bce.sh -update" >&2
	exit 1
fi
echo "bce: kernel-loop bounds checks match $golden"
