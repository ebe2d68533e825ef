// Package benchfmt defines the BENCH.json schema written by the
// benchmark driver (cmd/bench): parsing `go test -bench` output into
// Report entries, reading and writing the committed file, and the
// ns/op and allocs/op regression comparison behind `cmd/bench
// -compare`.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements over its -count runs.
type Result struct {
	// Name is the benchmark name with the GOMAXPROCS suffix stripped
	// (BenchmarkFoo/bar-8 -> BenchmarkFoo/bar).
	Name string `json:"name"`
	// Runs is the number of -count repetitions summarized: NsPerOp is
	// their median, the other measurements their mean.
	Runs int `json:"runs"`
	// Iterations is the mean b.N across runs.
	Iterations float64 `json:"iterations"`
	// NsPerOp is the median ns/op — the value the -compare gate
	// tracks. A median of five runs shrugs off the one run a busy host
	// slowed, which a mean would carry.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is the mean B/op (0 unless -benchmem reported it).
	BytesPerOp float64 `json:"bytes_per_op"`
	// AllocsPerOp is the mean allocs/op (0 unless -benchmem reported it).
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Report is the BENCH.json schema.
type Report struct {
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// ParseGoBench turns `go test -bench` text into a Report. Repeated
// lines for one benchmark (from -count > 1) are summarized by their
// median ns/op and mean iterations, B/op and allocs/op; benchmarks are
// sorted by name.
func ParseGoBench(text string) (Report, error) {
	var report Report
	type acc struct {
		runs                   int
		iters, bytesOp, allocs float64
		ns                     []float64
	}
	sums := make(map[string]*acc)
	var order []string

	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			report.GoOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			report.GoArch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			report.Pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			report.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name iterations value unit [value unit ...]
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := StripProcsSuffix(fields[0])
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return report, fmt.Errorf("bad iteration count in %q: %v", line, err)
		}
		a := sums[name]
		if a == nil {
			a = &acc{}
			sums[name] = a
			order = append(order, name)
		}
		a.runs++
		a.iters += iters
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return report, fmt.Errorf("bad value in %q: %v", line, err)
			}
			switch fields[i+1] {
			case "ns/op":
				a.ns = append(a.ns, v)
			case "B/op":
				a.bytesOp += v
			case "allocs/op":
				a.allocs += v
			}
		}
	}

	sort.Strings(order)
	for _, name := range order {
		a := sums[name]
		n := float64(a.runs)
		report.Benchmarks = append(report.Benchmarks, Result{
			Name:        name,
			Runs:        a.runs,
			Iterations:  a.iters / n,
			NsPerOp:     median(a.ns),
			BytesPerOp:  a.bytesOp / n,
			AllocsPerOp: a.allocs / n,
		})
	}
	return report, nil
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none. It sorts xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[m-1] + xs[m]) / 2
	}
	return xs[m]
}

// Compare diffs current ns/op and allocs/op against the baseline for
// every benchmark present in both reports, in baseline order. It
// returns one human-readable line per shared benchmark plus notes for
// benchmarks only one side has, and whether any shared benchmark
// regressed: ns/op above baseline × tolerance, or allocs/op measurably
// above baseline. Allocation counts are deterministic, so they get no
// 25% slack — growth past rounding noise means a scoring path gained
// an allocation, which is exactly what the static gate (cmd/lint
// hotalloc/ifaceescape and the -escapes baseline) guards; an ALLOC
// REGRESSION here that the static gate missed means a hot-path
// annotation is missing. Faster-than-baseline results never fail: the
// gate exists to catch lost fast paths, not to freeze improvements.
func Compare(baseline, current Report, tolerance float64) (lines []string, regressed bool) {
	cur := make(map[string]Result, len(current.Benchmarks))
	for _, r := range current.Benchmarks {
		cur[r.Name] = r
	}
	shared := make(map[string]bool, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		c, ok := cur[b.Name]
		if !ok {
			lines = append(lines, fmt.Sprintf("%s: in baseline only, skipped", b.Name))
			continue
		}
		shared[b.Name] = true
		ratio := c.NsPerOp / b.NsPerOp
		verdict := "ok"
		if b.NsPerOp > 0 && ratio > tolerance {
			verdict = "REGRESSION"
			regressed = true
		}
		allocs := ""
		if b.AllocsPerOp > 0 || c.AllocsPerOp > 0 {
			allocs = fmt.Sprintf(", %.0f -> %.0f allocs/op", b.AllocsPerOp, c.AllocsPerOp)
			// +0.5 absorbs averaging across -count>1 runs; any real new
			// allocation shifts the count by at least 1.
			if c.AllocsPerOp > b.AllocsPerOp+0.5 {
				verdict = "ALLOC REGRESSION (check go run ./cmd/lint -escapes ./...)"
				regressed = true
			}
		}
		lines = append(lines, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)%s %s",
			b.Name, b.NsPerOp, c.NsPerOp, (ratio-1)*100, allocs, verdict))
	}
	for _, c := range current.Benchmarks {
		if !shared[c.Name] {
			lines = append(lines, fmt.Sprintf("%s: not in baseline, skipped", c.Name))
		}
	}
	return lines, regressed
}

// ReadFile loads a BENCH.json report.
func ReadFile(path string) (Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(blob, &r); err != nil {
		return Report{}, fmt.Errorf("parsing %s: %v", path, err)
	}
	return r, nil
}

// WriteFile stores the report as indented JSON with a trailing
// newline, the committed-BENCH.json format.
func (r Report) WriteFile(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// StripProcsSuffix removes the trailing -GOMAXPROCS tag go test
// appends to benchmark names (BenchmarkFoo/bar-8 -> BenchmarkFoo/bar),
// so recorded names do not depend on the machine's core count.
func StripProcsSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
