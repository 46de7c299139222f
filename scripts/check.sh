#!/bin/sh
# Repo-wide check: build (and an arm64 cross-build, so the kernels'
# portable path cannot rot), vet, race tests, the kernel-loop
# bounds-check-elimination guard, and the benchmark guardrail -- the
# ablation benches run once and are diffed against the committed
# BENCH_baseline.json, failing on a >15% ns/op regression or any
# steady-state allocation creeping in.
set -eu
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...
echo "== go vet"
go vet ./...
echo "== cross-build arm64 (no assembly kernel there: the Go loops are the production path)"
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/grav
echo "== go test -race"
go test -race ./...
echo "== go test -race -count=1 (concurrency-heavy packages, uncached)"
go test -race -count=1 ./internal/trace ./internal/metrics ./internal/diag ./internal/msg \
	./internal/core ./internal/tree ./internal/domain ./internal/abm ./internal/hotengine \
	./internal/integrate ./internal/telemetry ./internal/parallel ./internal/simserve \
	./internal/cliutil ./internal/grav
echo "== telemetry smoke (treebench -http: scrape /metrics /report /series /health)"
sh scripts/telemetry_smoke.sh
echo "== simserve smoke (daemon + crash-injected job contained + bench throughput)"
sh scripts/simserve_smoke.sh
echo "== chaos soak (bounded, fixed seeds; clean exit or structured abort, never a hang)"
sh scripts/chaos.sh quick
echo "== walk guard (counts at N=10000 np=4: rewalked/traversals <= 0.1, 0 request rounds, splitter search <= 5 collectives)"
sh scripts/walk_guard.sh
echo "== fuzz (time-boxed: splitter selection equals the reference bisection, never panics, never hangs a world)"
# Coverage of a multi-goroutine target is not reproducible, so the
# minimizer would otherwise spend its default 60 s per new input.
go test -run='^$' -fuzz=FuzzSelectSplits -fuzztime=20s -fuzzminimizetime=10x ./internal/domain
echo "== bce (the interaction kernels' Go loops stay bounds-check-free, -d=ssa/check_bce)"
sh scripts/bce.sh
echo "== benchcmp (construction + walker ablations vs BENCH_baseline.json, tol 15%)"
{
	go test -run='^$' -bench=Ablation_Batched -benchtime=1x .
	go test -run='^$' -bench='Ablation_(Sort|Build|Decompose)' -benchtime=5x .
} | go run ./cmd/benchdump -compare BENCH_baseline.json -match 'Ablation_(Batched|Sort|Build|Decompose)' -tol 0.15
echo "== benchcmp (interaction-kernel + stepper ablations, tol 50%)"
# The Eval benches measure sub-millisecond kernels and the Step
# benches one single-iteration global step, so shared-machine clock
# steal swings their ns/op far more than the second-scale benches
# above; the loose timing tolerance only catches catastrophic
# regressions. The real guards are allocs/op (benchdump fails on ANY
# growth -- the kernels must stay allocation-free), the BCE golden
# above, and for the stepper the bitwise-equivalence and energy-pin
# tests plus the active-fraction metrics the benches report.
{
	go test -run='^$' -bench='Ablation_Eval' -benchtime=100x .
	go test -run='^$' -bench='Ablation_Step' -benchtime=1x .
} | go run ./cmd/benchdump -compare BENCH_baseline.json -match 'Ablation_(Eval|Step)' -tol 0.5
echo "== benchcmp (latency-hiding ablation: walk overlap, tol 50%)"
# Injected-latency A/B at np=8: wall clock on a shared single-core
# host is noisy, so the timing tolerance is loose; the hard guards are
# the bitwise force-equivalence tests (internal/parallel) and the
# ratio assertions the PR's acceptance ran. walk_s/op and stall_p99_ms
# travel in the baseline as custom metrics for eyeballing trends.
go test -run='^$' -bench='Ablation_WalkOverlap' -benchtime=1x . |
	go run ./cmd/benchdump -compare BENCH_baseline.json -match 'Ablation_WalkOverlap' -tol 0.5
echo "== ok"
