#!/usr/bin/env bash
# check.sh — the canonical tier-1+ verification gate for this repo.
#
# Every PR must pass this end-to-end. It layers, in order:
#   1. go build   — everything compiles
#   2. go vet     — the toolchain's own static checks; its copylocks
#                   pass is the repo's lock-copy check (sync locks and
#                   sync/atomic values copied by value; fixture in
#                   cmd/lint/testdata/copylocksmod)
#   3. cmd/lint   — the repo-specific determinism/concurrency/allocation
#                   analyzers (floatcmp, rngdiscipline, maporder,
#                   errcheck-lite, synccheck for loop-variable capture in
#                   go statements, hotalloc, ifaceescape, valuerecv,
#                   unusedexport; see DESIGN.md "Static analysis &
#                   determinism invariants")
#   4. cmd/lint -escapes — the compiler escape-analysis gate: heap
#      escapes inside //repro:hotpath functions must match the committed
#      ESCAPES.json baseline exactly (regenerate deliberate cold-path
#      additions with `go run ./cmd/lint -escapes -write`)
#   5. go test    — the full unit/integration suite
#   6. behaviour fingerprint — TestBehaviourFingerprint (cmd/experiments)
#      hashes every experiment CSV, the service's response bodies over
#      the Table-1 warmup grid, fleet-simulator traces and summaries,
#      and the scheduler-derived Fig.-2 wait law against the committed
#      golden file (cmd/experiments/testdata/behaviour.golden); any
#      refactor must leave every hash unchanged. Runs on the GOARCH the
#      golden was recorded on and skips elsewhere.
#   7. go test -race over the concurrency substrate: the parallel
#      worker pool, the simulators that fan out onto it (including the
#      cluster simulator's parallel workload generation), the core
#      package whose shared-cursor scoring runs on worker blocks, the
#      DP package whose fallback counter is a process-wide atomic
#      updated from concurrent solves, and the serving tier
#      (service backend/frontend, shard ring, tenant limiter, client,
#      and the in-process capture every in-process call serves into).
#   8. serving invariants — TestFleetServingInvariants
#      (internal/service) drives an in-process four-shard fleet with
#      seeded concurrent traffic: zero errors, cold misses == unique
#      request bodies (ring routing pins each spec to one shard), every
#      response names its shard, zero misses after the Table-1 warmup,
#      and the body and route memos both hit on the warm pass. Its
#      subtests show a ring bypass, a skipped warm key and a bypassed
#      memo each break the invariant meant to catch them.
#   9. flight under -race — the coalescing, timeout and flight tests
#      (TestSingleflightCollapsesConcurrentRequests, TestRequestTimeout,
#      TestFlightGroup*, and the wait-path tests: n coalesced requests
#      hold n + 1 goroutines, timed-out requests leave only the
#      computation's, a failed flight answers every waiter and is not
#      cached), the in-process capture's contract (TestCapture in
#      internal/inproc: a silent handler or a bare Write is a 200,
#      WriteHeader, X-Cache and X-Shard after the commit point are
#      ignored, a body is cut at 4 MiB, a reused capture leaks
#      nothing) and the frontend's in-process hop tests
#      (TestCaptureBodyTruncated, TestCaptureDropsLateXCache,
#      TestInProcessRefusalFailsOver, TestInProcessHopCarriesCallerContext,
#      TestInProcessHopConcurrentBodies: a 502/503 fails over, a body is
#      cut as over a URL, a late X-Cache is dropped, the caller's
#      context reaches the backend, concurrent callers get their own
#      bytes) run 20 times under the race detector, so an ordering bug
#      in flightGroup.join — a flight forgotten before its bytes are
#      cached, say — or a capture reused while a hop still reads it
#      fails the gate instead of once in a while.
#  10. clustersim smoke — the simulator's built-in gate (cmd/clustersim
#      -smoke): a small (strategy × shape × replicate) sweep matrix must
#      be bit-identical for 1, 4, and 16 workers, and the streaming
#      quantile sketch must agree with exact sorted-sample quantiles
#      within its documented error bound.
#  11. fuzz smoke — a few seconds of the cluster ledger/backfill/event-
#      core fuzz targets, the brute-force winner-only scan target
#      (Search and Sequence vs Curve, bit for bit), the DP engine target (the
#      candidate-queue pass vs the O(n²) scan, bit for bit), the
#      plan-body target (the direct /v1/plan encoder and its fallback vs
#      json.MarshalIndent, byte for byte or the same error), the
#      ring-walk target (the shard ring's allocation-free failover walk
#      vs the member-set oracle, member for member) and the fused law
#      target (SurvivalPDF vs separate Survival and PDF calls, bit for
#      bit, over law parameters and t) on top of their
#      committed corpora (testdata/fuzz), so a freshly broken invariant
#      is found here, not in a nightly.
#
# Usage: scripts/check.sh [--bench] [--compare]
#
# --bench additionally runs scripts/bench.sh after the gates pass,
# refreshing BENCH.json with the scoring-benchmark numbers. --compare
# instead re-runs the benchmarks and fails if any ns/op regressed by
# more than 25% against the committed BENCH.json. Both are opt-in so
# the default gate stays fast.
set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=0
run_compare=0
for arg in "$@"; do
  case "$arg" in
    --bench) run_bench=1 ;;
    --compare) run_compare=1 ;;
    *) echo "check.sh: unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go run ./cmd/lint ./..."
go run ./cmd/lint ./...

echo "== go run ./cmd/lint -escapes ./..."
go run ./cmd/lint -escapes ./...

echo "== go test ./..."
go test ./...

echo "== behaviour fingerprint"
go test -count=1 -run '^TestBehaviourFingerprint$' -v ./cmd/experiments/ | grep -E '^(--- |ok|FAIL)|fingerprint'

echo "== go test -race (concurrency substrate)"
go test -race ./internal/parallel/... ./internal/simulate/... ./internal/cluster/... ./internal/lru/... ./internal/service/... ./internal/core/... ./internal/dp/... ./internal/shard/... ./internal/tenant/... ./internal/inproc/... ./client/...

echo "== serving invariants"
go test -count=1 -run '^TestFleetServingInvariants$' ./internal/service/

echo "== flight under -race (coalescing, timeout, wait path, capture, in-process hop)"
go test -race -count=20 -run '^(TestSingleflightCollapsesConcurrentRequests|TestRequestTimeout|TestFlightGroup.*|TestCoalescedRequestsShareOneGoroutine|TestTimedOutRequestsLeaveOnlyTheComputation|TestFailedFlightAnswersEveryWaiter|TestCapture|TestCaptureBodyTruncated|TestCaptureDropsLateXCache|TestInProcessRefusalFailsOver|TestInProcessHopCarriesCallerContext|TestInProcessHopConcurrentBodies)$' ./internal/inproc/ ./internal/service/

echo "== clustersim smoke (sweep determinism + sketch accuracy)"
go run ./cmd/clustersim -smoke

echo "== fuzz smoke (cluster ledger + backfill + event core + winner-only scan + DP engine + plan body + ring walk + fused law)"
go test -run '^$' -fuzz '^FuzzLedger$' -fuzztime 3s ./internal/cluster/
go test -run '^$' -fuzz '^FuzzBackfill$' -fuzztime 3s ./internal/cluster/
go test -run '^$' -fuzz '^FuzzEventCore$' -fuzztime 3s ./internal/cluster/
go test -run '^$' -fuzz '^FuzzWinnerOnlyScan$' -fuzztime 3s ./internal/strategy/
go test -run '^$' -fuzz '^FuzzDPMatchesScan$' -fuzztime 3s ./internal/dp/
go test -run '^$' -fuzz '^FuzzPlanBody$' -fuzztime 3s ./internal/service/
go test -run '^$' -fuzz '^FuzzRingWalk$' -fuzztime 3s ./internal/shard/
go test -run '^$' -fuzz '^FuzzSurvivalPDF$' -fuzztime 3s ./internal/dist/

echo "check.sh: all gates passed"

if [ "$run_bench" = 1 ]; then
  echo "== scripts/bench.sh"
  scripts/bench.sh
fi

if [ "$run_compare" = 1 ]; then
  echo "== scripts/bench.sh --compare"
  scripts/bench.sh --compare
fi
