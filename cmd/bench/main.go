// Command bench runs the repository's scoring benchmarks through `go
// test -bench` and records the machine-readable results (ns/op, B/op,
// allocs/op) in a JSON file, BENCH.json by default. The file is the
// regression baseline for the empirical-cost fast path: committing it
// alongside a perf-sensitive change documents the before/after numbers,
// and re-running `scripts/bench.sh` on a later revision shows any
// drift.
//
// Usage:
//
//	go run ./cmd/bench                       # default subset -> BENCH.json
//	go run ./cmd/bench -bench . -out all.json
//	go run ./cmd/bench -cpuprofile cpu.out   # profile the benchmarked code
//	go run ./cmd/bench -compare BENCH.json   # regression check, no write
//	scripts/check.sh --bench                 # full gate + benchmarks
//
// The output is deterministic apart from the measurements themselves:
// benchmarks are sorted by name, each entry's ns/op is the median of
// its -count runs (5 by default; the other columns are means), and no
// timestamps are recorded (wall-clock metadata would make every run a
// spurious diff).
//
// Every entry is a `go test -bench` result in ns/op. End-to-end
// serving and fleet numbers, each with its own unit and direction, come
// from the repository benchmark in perfbench/ instead.
//
// -cpuprofile/-memprofile are handed through to `go test`, which writes
// the profile files and the compiled test binary (needed by `go tool
// pprof`) into the repository root. -compare replaces the write with a
// regression gate: current ns/op is diffed against the named baseline
// JSON for every benchmark present in both, and the exit status is
// nonzero if any benchmark slowed down by more than 25%.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/benchfmt"
)

// defaultBench is the scoring-path subset — the candidate-evaluation
// benchmarks the empirical-cost fast path is accountable to, the DP
// solver benchmarks (sub-quadratic fast path, O(n²) reference scan,
// budgeted variant), the Planner-level plan-cold kernels — plus the
// plan-service pair contrasting cached and uncached request latency,
// the in-process cached-hit pair (backend handler alone; frontend →
// in-process transport → backend) that leaves loopback HTTP out, and
// the cluster-simulator trio (streaming engine,
// buffered heap baseline, parallel sweep) whose speedup ratio
// TestCompareAgainstCommittedBaseline pins. The full suite (-bench .)
// includes multi-second experiment drivers and is opt-in.
const defaultBench = "^(BenchmarkWorkloadScoring|BenchmarkBruteForceScoring|BenchmarkAnalyticScoring|BenchmarkDPSolve|BenchmarkDPSolveScan|BenchmarkDPSolveBudget|BenchmarkPlannerKernels|BenchmarkMonteCarlo|BenchmarkExpectedCost|BenchmarkPlanServiceCached|BenchmarkPlanServiceCachedInProcess|BenchmarkPlanServiceUncached|BenchmarkClusterSim|BenchmarkClusterSimHeap|BenchmarkClusterSweep)$"

// compareTolerance is the -compare regression threshold: a benchmark
// fails the gate when its current ns/op exceeds the baseline by more
// than 25%. Generous enough to absorb ordinary machine noise on a 1s
// benchtime, tight enough to catch a lost fast path.
const compareTolerance = 1.25

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "BENCH.json", "output JSON file")
	benchRe := fs.String("bench", defaultBench, "go test -bench regexp")
	benchtime := fs.String("benchtime", "1s", "go test -benchtime value")
	count := fs.Int("count", 5, "go test -count repetitions (median ns/op)")
	pkg := fs.String("pkg", ".", "package to benchmark")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (passed to go test)")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file (passed to go test)")
	compare := fs.String("compare", "", "baseline JSON to diff against instead of writing -out; exit nonzero on >25% ns/op regressions")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cmdArgs := []string{
		"test", "-run", "^$",
		"-bench", *benchRe,
		"-benchmem",
		"-benchtime", *benchtime,
		"-count", strconv.Itoa(*count),
	}
	if *cpuprofile != "" {
		cmdArgs = append(cmdArgs, "-cpuprofile", *cpuprofile)
	}
	if *memprofile != "" {
		cmdArgs = append(cmdArgs, "-memprofile", *memprofile)
	}
	cmdArgs = append(cmdArgs, *pkg)
	fmt.Fprintf(stderr, "bench: go %s\n", strings.Join(cmdArgs, " "))
	cmd := exec.Command("go", cmdArgs...)
	cmd.Stderr = stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(stderr, "bench: go test: %v\n", err)
		return 1
	}
	if _, err := stdout.Write(raw); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	report, err := benchfmt.ParseGoBench(string(raw))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintf(stderr, "bench: no benchmarks matched %q\n", *benchRe)
		return 1
	}
	if *compare != "" {
		baseline, err := benchfmt.ReadFile(*compare)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		lines, regressed := benchfmt.Compare(baseline, report, compareTolerance)
		for _, l := range lines {
			fmt.Fprintf(stderr, "bench: %s\n", l)
		}
		if regressed {
			fmt.Fprintf(stderr, "bench: ns/op regression above %.0f%% vs %s\n", (compareTolerance-1)*100, *compare)
			return 1
		}
		fmt.Fprintf(stderr, "bench: no regressions vs %s\n", *compare)
		return 0
	}
	if err := report.WriteFile(*out); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "bench: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
	return 0
}
