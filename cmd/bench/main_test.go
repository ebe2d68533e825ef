package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

const cannedOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBruteForceScoring/monte-carlo-8         	    1652	    712738 ns/op	  156252 B/op	      13 allocs/op
BenchmarkBruteForceScoring/analytic-8            	     334	   3496205 ns/op	 1141552 B/op	   25554 allocs/op
BenchmarkWorkloadScoring/cost-on-samples-8       	      28	  41037973 ns/op	 1794968 B/op	   38096 allocs/op
BenchmarkWorkloadScoring/workload-8              	    2000	    548697 ns/op	   24784 B/op	       6 allocs/op
BenchmarkWorkloadScoring/workload-8              	    2000	    548703 ns/op	   24784 B/op	       6 allocs/op
PASS
ok  	repro	12.345s
`

func TestParseBenchOutput(t *testing.T) {
	report, err := benchfmt.ParseGoBench(cannedOutput)
	if err != nil {
		t.Fatal(err)
	}
	if report.GoOS != "linux" || report.GoArch != "amd64" || report.Pkg != "repro" {
		t.Errorf("header = (%q, %q, %q)", report.GoOS, report.GoArch, report.Pkg)
	}
	if report.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", report.CPU)
	}
	names := make([]string, len(report.Benchmarks))
	for i, r := range report.Benchmarks {
		names[i] = r.Name
	}
	want := []string{
		"BenchmarkBruteForceScoring/analytic",
		"BenchmarkBruteForceScoring/monte-carlo",
		"BenchmarkWorkloadScoring/cost-on-samples",
		"BenchmarkWorkloadScoring/workload",
	}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v (sorted, procs suffix stripped)", names, want)
		}
	}

	mc := report.Benchmarks[1]
	if mc.Runs != 1 || mc.Iterations != 1652 || mc.NsPerOp != 712738 ||
		mc.BytesPerOp != 156252 || mc.AllocsPerOp != 13 {
		t.Errorf("monte-carlo = %+v", mc)
	}
	// The duplicated workload line (-count 2) has the mean of its two
	// runs as its median.
	wl := report.Benchmarks[3]
	if wl.Runs != 2 || math.Abs(wl.NsPerOp-548700) > 0.5 || wl.AllocsPerOp != 6 {
		t.Errorf("workload = %+v, want 2 runs with median 548700 ns/op", wl)
	}
}

// TestParseBenchOutputMedian: over an odd number of runs ns/op is the
// middle run, so one slow run moves it no more than a fast one would;
// allocs/op stays the mean.
func TestParseBenchOutputMedian(t *testing.T) {
	report, err := benchfmt.ParseGoBench(`BenchmarkX-2	100	300 ns/op	0 B/op	1 allocs/op
BenchmarkX-2	100	100 ns/op	0 B/op	1 allocs/op
BenchmarkX-2	100	9000 ns/op	0 B/op	4 allocs/op
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 1 {
		t.Fatalf("benchmarks = %+v", report.Benchmarks)
	}
	if x := report.Benchmarks[0]; x.Runs != 3 || x.NsPerOp != 300 || x.AllocsPerOp != 2 {
		t.Errorf("BenchmarkX = %+v, want 3 runs, median 300 ns/op, mean 2 allocs/op", x)
	}
}

func TestParseBenchOutputBadLine(t *testing.T) {
	if _, err := benchfmt.ParseGoBench("BenchmarkX-8\tnot-a-number\t10 ns/op\n"); err == nil {
		t.Error("want error for unparseable iteration count")
	}
}

func TestCompareReports(t *testing.T) {
	baseline := benchfmt.Report{Benchmarks: []benchfmt.Result{
		{Name: "BenchmarkA", NsPerOp: 1000},
		{Name: "BenchmarkB", NsPerOp: 1000},
		{Name: "BenchmarkGone", NsPerOp: 500},
	}}
	current := benchfmt.Report{Benchmarks: []benchfmt.Result{
		{Name: "BenchmarkA", NsPerOp: 1240}, // +24%: inside tolerance
		{Name: "BenchmarkB", NsPerOp: 200},  // 5x faster: never a failure
		{Name: "BenchmarkNew", NsPerOp: 99},
	}}
	lines, regressed := benchfmt.Compare(baseline, current, 1.25)
	if regressed {
		t.Errorf("regressed = true within tolerance; lines:\n%s", strings.Join(lines, "\n"))
	}
	// One line per baseline entry plus the new-benchmark note.
	if len(lines) != 4 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.Contains(lines[2], "BenchmarkGone") || !strings.Contains(lines[2], "baseline only") {
		t.Errorf("missing baseline-only note: %q", lines[2])
	}
	if !strings.Contains(lines[3], "BenchmarkNew") || !strings.Contains(lines[3], "not in baseline") {
		t.Errorf("missing new-benchmark note: %q", lines[3])
	}

	current.Benchmarks[0].NsPerOp = 1251 // just past 25%
	lines, regressed = benchfmt.Compare(baseline, current, 1.25)
	if !regressed {
		t.Errorf("25.1%% slowdown not flagged; lines:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "REGRESSION") {
		t.Errorf("regressed line not labeled: %q", lines[0])
	}
	if strings.Contains(lines[1], "REGRESSION") {
		t.Errorf("faster benchmark labeled as regression: %q", lines[1])
	}
}

func TestCompareReportsZeroBaseline(t *testing.T) {
	// A zero ns/op baseline (hand-edited or truncated file) must not
	// divide into a spurious failure.
	baseline := benchfmt.Report{Benchmarks: []benchfmt.Result{{Name: "BenchmarkZ", NsPerOp: 0}}}
	current := benchfmt.Report{Benchmarks: []benchfmt.Result{{Name: "BenchmarkZ", NsPerOp: 10}}}
	if _, regressed := benchfmt.Compare(baseline, current, 1.25); regressed {
		t.Error("zero baseline flagged as regression")
	}
}

func TestCompareReportsAllocRegression(t *testing.T) {
	baseline := benchfmt.Report{Benchmarks: []benchfmt.Result{
		{Name: "BenchmarkHot", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "BenchmarkCold", NsPerOp: 1000, AllocsPerOp: 13},
	}}
	current := benchfmt.Report{Benchmarks: []benchfmt.Result{
		{Name: "BenchmarkHot", NsPerOp: 1000, AllocsPerOp: 1}, // gained an allocation
		{Name: "BenchmarkCold", NsPerOp: 1000, AllocsPerOp: 13},
	}}
	lines, regressed := benchfmt.Compare(baseline, current, 1.25)
	if !regressed {
		t.Errorf("allocs/op 0 -> 1 not flagged; lines:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "ALLOC REGRESSION") || !strings.Contains(lines[0], "cmd/lint -escapes") {
		t.Errorf("alloc regression line missing label or static-gate pointer: %q", lines[0])
	}
	if !strings.Contains(lines[0], "0 -> 1 allocs/op") {
		t.Errorf("alloc counts not shown: %q", lines[0])
	}
	if strings.Contains(lines[1], "REGRESSION") {
		t.Errorf("stable allocs labeled as regression: %q", lines[1])
	}

	// Sub-allocation jitter from -count averaging stays inside the
	// +0.5 slack; allocation drops never fail.
	current.Benchmarks[0].AllocsPerOp = 0.4
	current.Benchmarks[1].AllocsPerOp = 5
	if lines, regressed := benchfmt.Compare(baseline, current, 1.25); regressed {
		t.Errorf("averaging jitter or an allocs/op drop flagged; lines:\n%s", strings.Join(lines, "\n"))
	}
}

// TestCompareAgainstCommittedBaseline exercises the -compare gate
// against the repository's committed BENCH.json: the baseline must
// carry the DP solver benchmarks, compare clean against itself, and
// flag a synthetic DP slowdown (×1.3 ns/op) and a gained allocation
// the way a real regression would surface.
func TestCompareAgainstCommittedBaseline(t *testing.T) {
	blob, err := os.ReadFile("../../BENCH.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var baseline benchfmt.Report
	if err := json.Unmarshal(blob, &baseline); err != nil {
		t.Fatalf("parsing BENCH.json: %v", err)
	}
	byName := make(map[string]benchfmt.Result, len(baseline.Benchmarks))
	for _, r := range baseline.Benchmarks {
		byName[r.Name] = r
	}
	for _, want := range []string{
		"BenchmarkDPSolve/n=256",
		"BenchmarkDPSolve/n=4096",
		"BenchmarkDPSolve/n=16384",
		"BenchmarkDPSolveScan/n=4096",
		"BenchmarkDPSolveBudget/fast/n=4096/k=8",
		"BenchmarkDPSolveBudget/scan/n=4096/k=8",
		"BenchmarkClusterSim/1M",
		"BenchmarkClusterSimHeap/1M",
		"BenchmarkClusterSweep",
		"BenchmarkPlanServiceCachedInProcess/backend",
		"BenchmarkPlanServiceCachedInProcess/frontend",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("committed BENCH.json missing %s (regenerate with scripts/bench.sh)", want)
		}
	}
	if t.Failed() {
		return
	}
	// The committed fast-path number must document the ≥5× speedup over
	// the retained reference scan at the headline size.
	fast, scan := byName["BenchmarkDPSolve/n=4096"], byName["BenchmarkDPSolveScan/n=4096"]
	if !(fast.NsPerOp > 0) || scan.NsPerOp/fast.NsPerOp < 5 {
		t.Errorf("BENCH.json DP speedup at n=4096 is %.1fx (scan %.0f / fast %.0f ns/op), want >= 5x",
			scan.NsPerOp/fast.NsPerOp, scan.NsPerOp, fast.NsPerOp)
	}
	// The streaming calendar engine must document a ≥4× speedup over
	// the buffered heap baseline at 1M jobs, without gaining
	// allocations — the committed numbers are the scaling contract.
	cal, heap := byName["BenchmarkClusterSim/1M"], byName["BenchmarkClusterSimHeap/1M"]
	if !(cal.NsPerOp > 0) || heap.NsPerOp/cal.NsPerOp < 4 {
		t.Errorf("BENCH.json cluster-sim speedup at 1M jobs is %.1fx (heap %.0f / calendar %.0f ns/op), want >= 4x",
			heap.NsPerOp/cal.NsPerOp, heap.NsPerOp, cal.NsPerOp)
	}
	if cal.AllocsPerOp > heap.AllocsPerOp {
		t.Errorf("streaming engine allocates more than the buffered baseline: %.0f vs %.0f allocs/op",
			cal.AllocsPerOp, heap.AllocsPerOp)
	}

	if _, regressed := benchfmt.Compare(baseline, baseline, compareTolerance); regressed {
		t.Error("baseline does not compare clean against itself")
	}

	degraded := benchfmt.Report{Benchmarks: make([]benchfmt.Result, len(baseline.Benchmarks))}
	copy(degraded.Benchmarks, baseline.Benchmarks)
	var slowed, fattened string
	for i, r := range degraded.Benchmarks {
		switch r.Name {
		case "BenchmarkDPSolve/n=4096":
			degraded.Benchmarks[i].NsPerOp = r.NsPerOp * 1.3
			slowed = r.Name
		case "BenchmarkDPSolveBudget/fast/n=4096/k=8":
			degraded.Benchmarks[i].AllocsPerOp = r.AllocsPerOp + 1
			fattened = r.Name
		}
	}
	lines, regressed := benchfmt.Compare(baseline, degraded, compareTolerance)
	if !regressed {
		t.Fatalf("degraded DP entries not flagged; lines:\n%s", strings.Join(lines, "\n"))
	}
	for _, l := range lines {
		if strings.Contains(l, slowed+":") && !strings.Contains(l, "REGRESSION") {
			t.Errorf("%s slowdown not labeled: %q", slowed, l)
		}
		if strings.Contains(l, fattened+":") && !strings.Contains(l, "ALLOC REGRESSION") {
			t.Errorf("%s gained allocation not labeled: %q", fattened, l)
		}
	}
}

func TestStripProcsSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":       "BenchmarkFoo",
		"BenchmarkFoo/bar-16":  "BenchmarkFoo/bar",
		"BenchmarkFoo":         "BenchmarkFoo",
		"BenchmarkFoo/n=100-4": "BenchmarkFoo/n=100",
		"BenchmarkFoo/x-y":     "BenchmarkFoo/x-y",
	}
	for in, want := range cases {
		if got := benchfmt.StripProcsSuffix(in); got != want {
			t.Errorf("StripProcsSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCommittedEntriesMatchDefaultBench: every committed BENCH.json
// entry is one that a default `cmd/bench` run produces, so entries
// without a benchmark behind them (and hence without a unit the
// -compare gate understands) cannot creep back in. `go test -bench`
// matches the pattern against the top-level benchmark name; defaultBench
// has no '/' element, so every sub-benchmark of a match runs.
func TestCommittedEntriesMatchDefaultBench(t *testing.T) {
	baseline, err := benchfmt.ReadFile("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Benchmarks) == 0 {
		t.Fatal("committed BENCH.json has no entries")
	}
	re := regexp.MustCompile(defaultBench)
	for _, r := range baseline.Benchmarks {
		top, _, _ := strings.Cut(r.Name, "/")
		if !re.MatchString(top) {
			t.Errorf("BENCH.json entry %q is not produced by the default -bench pattern", r.Name)
		}
	}
}
