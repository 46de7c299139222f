#!/bin/sh
# Repo-wide check: build (and an arm64 cross-build, so the kernels'
# portable path cannot rot), vet, race tests, the smokes, the chaos
# soak, the walk guard, the fuzzers, the one-runner guards,
# the one-rank-record guard, the one-leaf-store guard, the one-MAC-walk guard,
# the one-decomposition, one-body-layout and one-way-across-ranks guards, the true-signals guard, the kernel-loop bounds-check-elimination
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
echo "== walk guard (counts at N=10000 np=4: a warm step's splitter search 1 collective of at most 4, its body exchange fewer than 12 batches, every rank using some of what it was pushed)"
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
echo "== fuzz (time-boxed: the list build's lane routines, the cell gather and the body-run converter, equal the Go loops bit for bit on 0-300 cells and bodies in runs of 1-16, every tail of 1-7, origins far from the data, NaN/Inf/subnormal/-0 moments and positions, and write nothing past the batch; skips without AVX-512)"
go test -run='^$' -fuzz=FuzzListLanes -fuzztime=10s ./internal/grav
echo "== fuzz (time-boxed: the Go definition's float32 fused multiply-add fma32 is VFMADD231PS bit for bit, NaNs by class; skips without AVX2 and FMA)"
go test -run='^$' -fuzz=FuzzFMA32 -fuzztime=10s ./internal/grav
echo "== one runner (engines are constructed in internal/runner and nowhere else outside tests, gravity, vortex and SPH runs have no serial path, and no production code imports the scalar Karp rsqrt)"
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
if grep -rlE --include='*.go' --exclude='*_test.go' '"repro/internal/rsqrt"' . | grep -v '^\./internal/rsqrt/'; then
	echo "FAIL: a second gravity kernel family: rsqrt.Rsqrt (the paper's Karp routine) is kept for the ablation benches only; kernels take the lanes (grav.EvalPP/EvalSelf/EvalM2P), references 1/math.Sqrt (grav.AccelAt, grav.M2P)" >&2
	exit 1
fi
echo "== one rank record (an engine describes its rank through Record, as a metrics.RankInput, and no other way: no collective Balance either, diag.BalanceOf reads the records)"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark \
	'func \(e \*(Engine|ParallelEngine)[^)]*\) (Telemetry|TelemetrySample|Report|Balance)\(|RankSample' .; then
	echo "FAIL: a second description of a rank: add the field to metrics.RankInput and fill it in Record" >&2
	exit 1
fi
echo "== one leaf store (the engine keeps the rank's leaf columns, the per-phase snapshot and the import arena, and alone decodes an imported leaf's First)"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=hotengine \
	'First \+ 1\)|First >= 0|First < 0|func \([^)]*\) (ImportLeaf|PackLeaf|ResetImports)\(|func \([^)]*\) Snapshot\(\) \{' .; then
	echo "FAIL: a second leaf store: read a leaf's bodies through hotengine.Engine.LeafBodies and give the physics' columns through Physics.Columns" >&2
	exit 1
fi
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark \
	'BodyWireBytes|hotengine\.Columns\b|type Columns\[|func \([^)]*\) Slice\(lo, hi int32\)' .; then
	echo "FAIL: a second leaf layout: a leaf's bodies are a range of a core.System view (Physics.Columns), charged at its BodyBytes" >&2
	exit 1
fi
echo "== one MAC walk (the engine measures a MAC walk's groups and tests them itself; only a range query brings a sphere and a test, and gravity's visitor is written once)"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=tree --exclude-dir=hotengine \
	'MAC\(\) bool|tree\.ClassifyBound\(' .; then
	echo "FAIL: a visitor with its own MAC: the engine measures a MAC walk's groups (tree.GroupSphere) and tests them (tree.Classify, tree.ClassifyBound); only a hotengine.RangeQuery brings Sphere and TestBound" >&2
	exit 1
fi
if [ "$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=tree --exclude-dir=hotengine 'TakeCells\(' . | wc -l)" -gt 1 ]; then
	grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=tree --exclude-dir=hotengine 'TakeCells\(' . >&2
	echo "FAIL: a second gravity visitor: run parallel.Pass, the one gravity pass of a MAC walk" >&2
	exit 1
fi
echo "== one decomposition (every evaluation, a block step's partial ones too, decomposes through domain.Decomposer.DecomposeGlobal: no splits-reuse fast path, no stale-domain exchange)"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark \
	'DefaultReuseThreshold|SplitsReused|DisplacedFrac|\.Reuse\b|Decomposer\{[^}]*Reuse|^[[:space:]]*Reuse[[:space:]]+bool' .; then
	echo "FAIL: a second decomposition: a partial evaluation searches its splitters like a full one (domain.Decomposer.DecomposeGlobal)" >&2
	exit 1
fi
# An ExchangeFor call or declaration with a third argument, one level of
# nested parentheses dropped before the commas are counted.
if grep -rnoE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'ExchangeFor\((\([^()]*\)|[^()])*\)' . |
	sed -E 's/:ExchangeFor\(/:/; s/\)$//; s/\([^()]*\)//g' | grep -E '^[^:]*:[0-9]+:[^,]*,[^,]*,'; then
	echo "FAIL: ExchangeFor takes the first walk and its active set, nothing else: every exchange decomposes through DecomposeGlobal" >&2
	exit 1
fi
echo "== one body layout (a body is core.System's columns and its order core.Sorter's: the exchange sends column views and repairs the order with Sorter.Resort)"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark \
	'\.ID\[[^]]*\] *[<>]|[<>]=? *[A-Za-z_.]*\.ID\[|\b(mergeRuns|WireBytes|BytesPerBody)\b' . | grep -v '^\./internal/core/' ||
	grep -rnE --include='*.go' --exclude='*_test.go' '^type Wire struct' internal/domain; then
	echo "FAIL: a second body layout or order: move bodies as core.System column views (Carried, AppendRange, Bytes) and order them with core.Sorter" >&2
	exit 1
fi
echo "== one way across ranks (body state crosses ranks only in the body exchange: a vortex step's pre-step state rides it in the Pos0/Alpha0 columns, not an ID-keyed allgather)"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'map\[int64\]' . ||
	grep -nE 'msg\.(Bcast|Reduce|Allreduce|Gather|Allgather|Alltoallv)|\.Barrier\(' internal/vortex/parallel.go; then
	echo "FAIL: body state keyed by ID, or a collective in the vortex step: carry it in core.System columns through the body exchange" >&2
	exit 1
fi
echo "== true signals (the request path's tallies -- rewalked visits, deferrals, requests -- and the walk-stall histogram, p99, efficiency and monitor are read only where the push is off: in internal/hotengine and its tests, never in a report, sample or monitor)"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=hotengine \
	'\b(Rewalked|Deferred|Requests|StallHistogram|StallP99[A-Za-z]*|WalkEfficiency|MonitorWalkStall)\b|walk_stall' .; then
	echo "FAIL: a signal that reads 0 on every pushed run: the request path's tallies are hotengine.Engine.Park, for its tests and push-off benchmarks only" >&2
	exit 1
fi
echo "== bce (the interaction kernels' Go loops stay bounds-check-free, -d=ssa/check_bce)"
sh scripts/bce.sh
echo "== fma guard (the gravity kernels' float32 Go loops fuse nothing on arm64: every fused multiply-add is an explicit fma32, so they mean the same bits everywhere)"
sh scripts/fma_guard.sh
echo "== benchcmp (allocs/op of the index descent, the sink-cell walk and evaluation, the gravity (dispatched, YMM block forced, Go) and vortex interaction kernels, the list build (dispatched, Go forced) and the splitter sweep at np = 256 vs BENCH_baseline.json)"
{
	go test -run='^$' -bench='Ablation_(DescentIndex|SinkCells)' -benchtime=5x .
	go test -run='^$' -bench='Ablation_(Eval|ListBuild|SplitterSweep)' -benchtime=100x ./internal/grav ./internal/vortex ./internal/domain
} | go run ./cmd/benchdump -compare BENCH_baseline.json -match 'Ablation_(DescentIndex|SinkCells|Eval|ListBuild|SplitterSweep)'
echo "== ok"
