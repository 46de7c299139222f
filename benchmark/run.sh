#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes (binary, Go build cache, Go's own config
# and telemetry files) stays under .bench_build/ at the root of the
# checkout; nothing is fetched. The binary runs from the root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/hotbench" .)
cd "$root"
exec "$build/hotbench" "$@"
