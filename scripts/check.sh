#!/bin/sh
# Repo-wide check: build (and an arm64 cross-build, so the kernels'
# portable path cannot rot), vet, race tests, the smokes, the chaos
# soak, the walk guard, the fuzzers, the one-runner guards,
# the one-rank-record guard, the kernel-loop bounds-check-elimination
# and fusion guards, and the allocation guard -- the benches that must run
# allocation-free are diffed against the committed BENCH_baseline.json,
# failing on any growth in allocs/op.
# Times are not compared: this box swings +-40% between two runs of one
# binary, so a timing claim takes alternating pairs (ROADMAP "How a
# number is claimed now"), not a tolerance.
set -eu
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...
echo "== go vet"
go vet ./...
echo "== cross-build arm64 (no assembly kernel there: the Go loops are the production path)"
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/grav ./internal/vortex
echo "== go test -race"
go test -race ./...
echo "== go test -race -count=1 (concurrency-heavy packages, uncached)"
go test -race -count=1 ./internal/trace ./internal/metrics ./internal/diag ./internal/msg \
	./internal/core ./internal/tree ./internal/domain ./internal/abm ./internal/hotengine \
	./internal/integrate ./internal/telemetry ./internal/parallel ./internal/simserve \
	./internal/cliutil ./internal/grav ./internal/runner
echo "== telemetry smoke (treebench -http: scrape /metrics /report /series /health)"
sh scripts/telemetry_smoke.sh
echo "== simserve smoke (daemon + crash-injected job contained + bench throughput)"
sh scripts/simserve_smoke.sh
echo "== chaos soak (bounded, fixed seeds; clean exit or structured abort, never a hang)"
sh scripts/chaos.sh quick
echo "== sphsim -procs 1 (one rank runs the engine, so the observability flags apply: a RunReport with SPH pairs)"
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
go run ./cmd/sphsim -n 500 -steps 2 -procs 1 -metrics "$OUT/r.json" >/dev/null
grep -q '"SPHPairs": [1-9]' "$OUT/r.json" || { echo "FAIL: sphsim -procs 1 wrote no RunReport with SPH pairs" >&2; exit 1; }
echo "== vortexsim -procs 1 (the remesh is a collective of the engine: a RunReport with vortex interactions and a grown particle set)"
go run ./cmd/vortexsim -ntheta 24 -procs 1 -steps 4 -remesh 2 -metrics "$OUT/v.json" >/dev/null
grep -q '"VortexPP": [1-9]' "$OUT/v.json" || { echo "FAIL: vortexsim -procs 1 wrote no RunReport with vortex interactions" >&2; exit 1; }
BODIES=$(sed -n 's/^  "bodies": \([0-9]*\),$/\1/p' "$OUT/v.json")
[ "${BODIES:-0}" -gt 192 ] || { echo "FAIL: vortexsim -procs 1 -remesh 2 ended with ${BODIES:-no} bodies of 192 (2 rings x 24 x 4)" >&2; exit 1; }
echo "== walk guard (counts at N=10000 np=4: rewalked/traversals <= 0.1, 0 request rounds, a warm step's splitter search 1 collective of at most 4, its body exchange fewer than 12 batches)"
sh scripts/walk_guard.sh
echo "== fuzz (time-boxed: both splitter searches equal the reference bisection, ranks agree on which ran, the exchange plan reaches every body's receiver, never a panic, never a hung world)"
# Coverage of a multi-goroutine target is not reproducible, so the
# minimizer would otherwise spend its default 60 s per new input.
go test -run='^$' -fuzz=FuzzSelectSplits -fuzztime=10s -fuzzminimizetime=10x ./internal/domain
echo "== fuzz (time-boxed: the key domain rule quantizes every point of its box inside the cube, is at most 1.06 spans, holds still within a lattice cell and a ladder rung, and GlobalDomain is NewDomain)"
go test -run='^$' -fuzz=FuzzDomainOf -fuzztime=10s -fuzzminimizetime=10x ./internal/domain
echo "== fuzz (time-boxed: a chaos spec parses to probabilities in [0, 1] or an error)"
go test -run='^$' -fuzz=FuzzParseChaos -fuzztime=10s -fuzzminimizetime=10x ./internal/cliutil
echo "== fuzz (time-boxed: a POST /jobs body decodes and validates to a runnable spec or an error, never a panic)"
go test -run='^$' -fuzz=FuzzJobSpec -fuzztime=10s -fuzzminimizetime=10x ./internal/simserve
echo "== fuzz (time-boxed: a striped snapshot set reads to a valid system or an error, never a panic)"
go test -run='^$' -fuzz=FuzzReadStriped -fuzztime=10s -fuzzminimizetime=10x ./internal/snapio
echo "== fuzz (time-boxed: the pair kernels' reciprocal square root is the Go loop's bit for bit, on the ZMM block of eight targets x two sources and the YMM block of four x two; skips without AVX2)"
go test -run='^$' -fuzz=FuzzRsqrtLanes -fuzztime=10s ./internal/grav
echo "== fuzz (time-boxed: the pair kernels equal the Go loops bit for bit on groups of 1-40 targets and lists of 0-300, odd lengths and fold boundaries, NaN/Inf/subnormal patterns in the odd last slot, on both blocks; skips without AVX2)"
go test -run='^$' -fuzz=FuzzKernelLanes -fuzztime=10s ./internal/grav
echo "== fuzz (time-boxed: the Go definition's float32 fused multiply-add fma32 is VFMADD231PS bit for bit, NaNs by class; skips without AVX2 and FMA)"
go test -run='^$' -fuzz=FuzzFMA32 -fuzztime=10s ./internal/grav
echo "== one runner (engines are constructed in internal/runner and nowhere else outside tests, and gravity, vortex and SPH runs have no serial path)"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=runner \
	'(parallel\.New|sph\.NewParallel|vortex\.NewParallel)\(' .; then
	echo "FAIL: an engine constructed outside internal/runner: describe the run as a runner.Plan" >&2
	exit 1
fi
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark \
	'vortex\.Step\(|TreeEval\(|DistributedOnly' .; then
	echo "FAIL: a second vortex path: step and remesh through runner.Run (TreeEval is a test reference)" >&2
	exit 1
fi
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'sph\.Step\(' .; then
	echo "FAIL: a second SPH path: run through runner.Run (the serial Density/Forces/Step are a test reference)" >&2
	exit 1
fi
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'GravityActive\(|\.Gravity\(|FuncBodies' . |
	grep -vE '^\./internal/tree/[^:]*:[0-9]+:.*\.Gravity\(|^\./internal/integrate/[^:]*:[0-9]+:.*FuncBodies'; then
	echo "FAIL: a second serial gravity path: evaluate and step through runner.Gravity.Serial, the one-rank engine (tree.Tree.Gravity and integrate.FuncBodies are test references)" >&2
	exit 1
fi
echo "== one rank record (an engine describes its rank through Record, as a metrics.RankInput, and no other way)"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark \
	'func \(e \*(Engine|ParallelEngine)[^)]*\) (Telemetry|TelemetrySample|Report)\(|RankSample' .; then
	echo "FAIL: a second description of a rank: add the field to metrics.RankInput and fill it in Record" >&2
	exit 1
fi
echo "== bce (the interaction kernels' Go loops stay bounds-check-free, -d=ssa/check_bce)"
sh scripts/bce.sh
echo "== fma guard (the gravity kernels' float32 Go loops fuse nothing on arm64: every fused multiply-add is an explicit fma32, so they mean the same bits everywhere)"
sh scripts/fma_guard.sh
echo "== benchcmp (allocs/op of the index descent, the sink-cell walk and evaluation, and the gravity (dispatched, YMM block forced, Go) and vortex interaction kernels vs BENCH_baseline.json)"
{
	go test -run='^$' -bench='Ablation_(DescentIndex|SinkCells)' -benchtime=5x .
	go test -run='^$' -bench='Ablation_Eval' -benchtime=100x ./internal/grav ./internal/vortex
} | go run ./cmd/benchdump -compare BENCH_baseline.json -match 'Ablation_(DescentIndex|SinkCells|Eval)'
echo "== ok"
