package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/tablefmt"
)

// dataRows counts a table's data rows: its CSV records below the
// header.
func dataRows(t *testing.T, table *tablefmt.Table) int {
	t.Helper()
	var buf bytes.Buffer
	if err := table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return strings.Count(buf.String(), "\n") - 1
}

func testOptions() options {
	return options{
		DistSpec:    "exp(1)",
		Strategies:  []string{"mean-doubling", "equal-probability"},
		Jobs:        1500,
		Seed:        7,
		Nodes:       4,
		NodeCap:     2,
		MinWidth:    1,
		MaxWidth:    2,
		MaxAttempts: 8,
		Backfill:    "easy",
		Model:       repro.CostModel{Alpha: 1, Beta: 0.5, Gamma: 0.1},
		Check:       true,
	}
}

func TestCompareTabulatesEveryStrategy(t *testing.T) {
	opt := testOptions()
	table, err := compare(opt)
	if err != nil {
		t.Fatal(err)
	}
	if dataRows(t, table) != len(opt.Strategies) {
		t.Fatalf("%d rows for %d strategies", dataRows(t, table), len(opt.Strategies))
	}
	out := table.String()
	for _, name := range opt.Strategies {
		if !strings.Contains(out, name) {
			t.Errorf("table misses strategy %s:\n%s", name, out)
		}
	}
}

// TestCompareWorkerIndependence: the rendered table embeds the trace
// hash of every run, so string equality across worker counts proves the
// event traces are bit-identical.
func TestCompareWorkerIndependence(t *testing.T) {
	var rendered []string
	for _, workers := range []int{1, 4, 16} {
		opt := testOptions()
		opt.Workers = workers
		table, err := compare(opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		rendered = append(rendered, table.String())
	}
	for i := 1; i < len(rendered); i++ {
		if rendered[i] != rendered[0] {
			t.Fatalf("results differ between 1 and %d workers:\n%s\nvs\n%s",
				[]int{1, 4, 16}[i], rendered[0], rendered[i])
		}
	}
}

func TestCompareMeteredTenant(t *testing.T) {
	opt := testOptions()
	opt.Strategies = []string{"mean-doubling"}
	opt.Budget = 200 // tight: most jobs are rejected, accounting must stay clean
	opt.Quota = 3
	table, err := compare(opt)
	if err != nil {
		t.Fatal(err)
	}
	if dataRows(t, table) != 1 {
		t.Fatalf("got %d rows", dataRows(t, table))
	}
}

func TestCompareErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*options)
	}{
		{"no strategies", func(o *options) { o.Strategies = nil }},
		{"unknown strategy", func(o *options) { o.Strategies = []string{"no-such"} }},
		{"bad distribution", func(o *options) { o.DistSpec = "not-a-law(1)" }},
		{"bad backfill", func(o *options) { o.Backfill = "aggressive" }},
		{"zero nodes", func(o *options) { o.Nodes = 0 }},
		{"zero capacity", func(o *options) { o.NodeCap = 0 }},
	}
	for _, tc := range cases {
		opt := testOptions()
		tc.mutate(&opt)
		if _, err := compare(opt); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSplitStrategies(t *testing.T) {
	if got := splitStrategies(" all "); len(got) != len(repro.Strategies()) {
		t.Fatalf("'all' expanded to %v", got)
	}
	got := splitStrategies("mean-doubling, equal-time ,")
	if len(got) != 2 || got[0] != "mean-doubling" || got[1] != "equal-time" {
		t.Fatalf("got %v", got)
	}
}

func TestParseBackfill(t *testing.T) {
	for in, want := range map[string]cluster.BackfillPolicy{
		"none": cluster.BackfillNone, "EASY": cluster.BackfillEASY,
		" conservative ": cluster.BackfillConservative,
	} {
		got, err := parseBackfill(in)
		if err != nil || got != want {
			t.Errorf("parseBackfill(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseBackfill("firstfit"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestParseShapes(t *testing.T) {
	shapes, err := parseShapes("", 16, 4)
	if err != nil || len(shapes) != 1 || shapes[0].Name != "16x4" || len(shapes[0].Nodes) != 16 || shapes[0].Nodes[0] != 4 {
		t.Fatalf("default shape: %+v, %v", shapes, err)
	}
	shapes, err = parseShapes(" 8x2 ,64x1", 16, 4)
	if err != nil || len(shapes) != 2 {
		t.Fatalf("got %+v, %v", shapes, err)
	}
	if shapes[1].Name != "64x1" || len(shapes[1].Nodes) != 64 || shapes[1].Nodes[63] != 1 {
		t.Fatalf("shape 64x1 parsed as %+v", shapes[1])
	}
	for _, bad := range []string{"8", "0x4", "8x0", "8x-1", "axb", ","} {
		if _, err := parseShapes(bad, 16, 4); err == nil {
			t.Errorf("parseShapes(%q) accepted", bad)
		}
	}
}

func sweepTestOptions() options {
	opt := testOptions()
	opt.Jobs = 600
	opt.Replicates = 2
	opt.Shapes = "4x2,2x4"
	return opt
}

// TestSweepTabulatesMatrix: one table row per (strategy × shape) group,
// one result cell per (strategy × shape × replicate).
func TestSweepTabulatesMatrix(t *testing.T) {
	opt := sweepTestOptions()
	table, result, err := sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(opt.Strategies) * 2; dataRows(t, table) != want {
		t.Fatalf("%d rows, want %d", dataRows(t, table), want)
	}
	if want := len(opt.Strategies) * 2 * opt.Replicates; len(result.Cells) != want {
		t.Fatalf("%d cells, want %d", len(result.Cells), want)
	}
	out := table.String()
	for _, tok := range []string{"mean-doubling", "equal-probability", "4x2", "2x4"} {
		if !strings.Contains(out, tok) {
			t.Errorf("table misses %q:\n%s", tok, out)
		}
	}
}

// TestSweepWorkerIndependenceCmd: the sweep hash and every cell must be
// bit-identical across worker counts when driven through the command's
// option plumbing.
func TestSweepWorkerIndependenceCmd(t *testing.T) {
	var ref cluster.SweepResult
	for i, workers := range []int{1, 7} {
		opt := sweepTestOptions()
		opt.Workers = workers
		_, result, err := sweep(opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			ref = result
			continue
		}
		if result.Hash != ref.Hash {
			t.Fatalf("sweep hash differs: %016x vs %016x", result.Hash, ref.Hash)
		}
		for k := range ref.Cells {
			if result.Cells[k] != ref.Cells[k] {
				t.Fatalf("cell %d differs across worker counts", k)
			}
		}
	}
}

func TestSweepErrorsCmd(t *testing.T) {
	opt := sweepTestOptions()
	opt.Shapes = "8"
	if _, _, err := sweep(opt); err == nil {
		t.Error("bad shape accepted")
	}
	opt = sweepTestOptions()
	opt.Strategies = nil
	if _, _, err := sweep(opt); err == nil {
		t.Error("empty strategy list accepted")
	}
	opt = sweepTestOptions()
	opt.Replicates = 0
	if _, _, err := sweep(opt); err == nil {
		t.Error("zero replicates accepted")
	}
}

// TestRunSmoke: the check.sh gate must pass against the current
// simulator (cross-worker determinism and sketch accuracy).
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs 12 sweeps plus a buffered reference run")
	}
	if err := runSmoke(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSweepCSV(t *testing.T) {
	opt := sweepTestOptions()
	opt.Jobs = 200
	_, result, err := sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "results")
	path, err := writeSweepCSV(dir, result)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if want := 1 + len(result.Cells); len(lines) != want {
		t.Fatalf("csv has %d lines, want %d:\n%s", len(lines), want, data)
	}
	if !strings.HasPrefix(lines[0], "strategy,shape,replicate,seed,") {
		t.Fatalf("csv header: %s", lines[0])
	}
	for _, line := range lines[1:] {
		if n := strings.Count(line, ","); n != strings.Count(lines[0], ",") {
			t.Fatalf("ragged csv row: %s", line)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	opt := testOptions()
	opt.Strategies = opt.Strategies[:1]
	opt.Jobs = 200
	table, err := compare(opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "results")
	path, err := writeCSV(dir, table)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv has %d lines:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "strategy,") {
		t.Fatalf("csv header: %s", lines[0])
	}
}
