#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Everything the build and the run write
# goes under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
