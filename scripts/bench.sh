#!/usr/bin/env bash
# bench.sh — run the scoring benchmarks and refresh BENCH.json.
#
# Wraps cmd/bench: `go test -bench` over the candidate-scoring subset
# (Workload fast path vs CostOnSamples, brute-force search, the fused
# analytic CostCursor vs per-candidate ExpectedCost, Eq.-(4) and
# Eq.-(13) evaluation), the DP solver set (sub-quadratic fast path vs
# the retained O(n²) reference scan at n = 256/4096/16384, plus the
# K-budgeted variant), the Planner-level plan-cold kernels (brute
# force, DP, Monte-Carlo), the plan-service pairs (cached vs uncached over
# loopback HTTP; cached hit on the backend alone vs through the
# in-process frontend) and the cluster-simulator trio (streaming engine,
# heap baseline, parallel sweep), parsed into a deterministic JSON
# report. Every entry is a `go test -bench` result in ns/op; end-to-end
# serving and fleet numbers come from perfbench/run.sh instead.
#
# Usage:
#   scripts/bench.sh                     # default subset -> BENCH.json
#   scripts/bench.sh -bench . -out all.json -benchtime 2s -count 3
#   scripts/bench.sh -cpuprofile cpu.out -memprofile mem.out
#   scripts/bench.sh --compare           # diff vs committed BENCH.json;
#                                        # exit nonzero on >25% ns/op
#                                        # regression, nothing written
#
# The allocs/op column of BENCH.json is the dynamic twin of the static
# allocation gate: the hotalloc/ifaceescape analyzers and the committed
# ESCAPES.json baseline (cmd/lint -escapes) keep the scoring kernels
# allocation-free at the source level, and --compare catches any
# regression those proofs miss at run time. An allocs/op increase on a
# scoring benchmark means a hot-path function gained an allocation —
# check `go run ./cmd/lint -escapes ./...` before touching the baseline.
#
# All other flags are passed through to cmd/bench (and from there to
# `go test`); profile files and the compiled test binary land in the
# repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

args=()
for arg in "$@"; do
  case "$arg" in
    --compare) args+=(-compare BENCH.json) ;;
    *) args+=("$arg") ;;
  esac
done

go run ./cmd/bench "${args[@]+"${args[@]}"}"
