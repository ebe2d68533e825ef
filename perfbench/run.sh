#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it.
#
# Usage (from the repository root):
#
#	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The Go build cache and the binary stay under .bench_build in the current
# directory. Outside a checkout of the module (no go.mod next to
# perfbench/) the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
