# Convenience entry points; scripts/check.sh is the source of truth
# for what "green" means.

check:
	sh scripts/check.sh

# Chaos soak: treebench under deterministic fault injection across
# np in {2,8}; every run must end clean (0) or in a structured abort
# (3) -- a hang or raw panic fails the soak.
chaos:
	sh scripts/chaos.sh full

.PHONY: chaos

# Regenerate the committed performance baseline (ablation benches
# parsed to JSON by cmd/benchdump). A short
# treebench run supplies the RunReport whose flop-rate context is
# embedded alongside the numbers ("sim" field), so the baseline records
# what the machine achieved end to end when it was cut.
# No row is one iteration: a time taken once on this box says nothing.
# The benches of tens to hundreds of milliseconds (the tree ablations,
# the construction pipeline, the descent and sink pairs, the steps) run
# 5; the millisecond ones (the interaction kernels, GroupSphere, the
# splitter sweep; the gravity and vortex kernels' rows come from
# internal/grav and internal/vortex, the sweep's from internal/domain)
# 100; the nanosecond
# rows (Rsqrt, Hash) for a second each -- one iteration of those is one
# call plus the timer.
bench-baseline:
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	go run ./cmd/treebench -n 50000 -procs 4 -steps 1 -metrics "$$dir/report.json" >/dev/null && \
	{ go test -run='^$$' -bench='Ablation_(MAC|Order|GroupSize|ABM|Step|Sink|Sort|Build|Decompose|Descent)' -benchtime=5x . ; \
	  go test -run='^$$' -bench='Ablation_(Hash|Rsqrt)' -benchtime=1s . ; \
	  go test -run='^$$' -bench='Ablation_(Eval|GroupSphere|ListBuild|SplitterSweep)' -benchtime=100x . ./internal/grav ./internal/vortex ./internal/domain ; } \
	  | go run ./cmd/benchdump -runreport "$$dir/report.json" -o BENCH_baseline.json

.PHONY: check bench-baseline

# Run just the allocation guard of scripts/check.sh: the benches that
# must stay allocation-free, diffed against the committed baseline
# (times are printed, not compared).
benchcmp:
	{ go test -run='^$$' -bench='Ablation_(DescentIndex|SinkCells)' -benchtime=5x . ; \
	  go test -run='^$$' -bench='Ablation_(Eval|ListBuild|SplitterSweep)' -benchtime=100x ./internal/grav ./internal/vortex ./internal/domain ; } \
	  | go run ./cmd/benchdump -compare BENCH_baseline.json -match 'Ablation_(DescentIndex|SinkCells|Eval|ListBuild|SplitterSweep)'

.PHONY: benchcmp
