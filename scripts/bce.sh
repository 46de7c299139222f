#!/bin/sh
# Bounds-check-elimination guard for the interaction kernels' Go loops
# (internal/grav/kernel.go and internal/vortex/kernel.go: the kernels'
# definition everywhere, and the production path wherever the assembly
# is not), the list build's Go loops (addRunsGo and addCellsGo in
# internal/grav/kernel.go: the definition of the lane routines, and the
# production path off AVX-512) and the Go glue that feeds grav's
# assembly (internal/grav/kernel_amd64.go: the target loads of every
# block of four or eight targets, and addRuns and addCells, which hand
# the lane routines the columns' bases and so keep no check at all).
#
# Builds the packages with -d=ssa/check_bce and compares the checks the
# compiler could NOT eliminate in those three files against the
# committed golden (scripts/bce_allow.txt). The golden is aggregated to per-kind
# counts so comment edits don't churn it; any NEW check that survives
# prove -- say a refactor that drops a column's re-slice and puts a
# per-interaction bounds check back into a sweep -- changes a count and
# fails the guard.
#
# What the golden admits: in the two kernel.go files IsSliceInBounds
# only, the re-slices of every column to one shared length (sx[:n] and
# friends at the top of ppGo, m2pQuadGo and EvalSelf, and at every
# fold of ppGo and m2pQuadGo, once per foldK sources; the columns and
# target slices at the top of evalVelPPGo and evalVelMonoGo; the ten
# slab columns at the top of addCellsGo, and a run's masses and the four
# source columns once per run in addRunsGo). That re-slice is what lets
# prove drop every index check, so the loops themselves are check-free.
# In kernel_amd64.go the re-slices of sweep and of pp and m2pQuad (none
# in addRuns and addCells), and eight IsInBounds: in pp and m2pQuad the
# first element of the source columns, taken once per call, outside
# the block loop; in sweep the block's four output slots, once per
# block, and the target a lane pair repeats, once per lane. The
# kernels fold in the assembly, so no Go loop touches a sum. There is
# no tile to carve and no seed table to index any more.
#
# Run with -update after a deliberate kernel change to regenerate the
# golden (and say why in the commit).
set -eu
cd "$(dirname "$0")/.."

golden=scripts/bce_allow.txt

actual=$(go build -gcflags='-d=ssa/check_bce' ./internal/grav/ ./internal/vortex/ 2>&1 |
	grep -E '^internal/((grav|vortex)/kernel|grav/kernel_amd64)\.go' |
	sed -E 's/^([^:]+):[0-9]+:[0-9]+: Found /\1 /' |
	sort | uniq -c | awk '{printf "%4d %s %s\n", $1, $2, $3}')

if [ "${1:-}" = "-update" ]; then
	printf '%s\n' "$actual" >"$golden"
	echo "bce: regenerated $golden"
	exit 0
fi

if ! printf '%s\n' "$actual" | diff -u "$golden" - >&2; then
	echo "bce: surviving bounds checks in the kernel loops changed" >&2
	echo "bce: inspect with: go build -gcflags='-d=ssa/check_bce' ./internal/grav/ ./internal/vortex/" >&2
	echo "bce: if the change is deliberate: sh scripts/bce.sh -update" >&2
	exit 1
fi
echo "bce: kernel-loop bounds checks match $golden"
