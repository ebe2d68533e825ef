package benchfmt

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestMergeUpsertsAndSorts(t *testing.T) {
	base := Report{Benchmarks: []Result{
		{Name: "BenchmarkB", NsPerOp: 2},
		{Name: "BenchmarkA", NsPerOp: 1},
	}}
	merged := Merge(base, []Result{
		{Name: "BenchmarkB", NsPerOp: 20},              // update in place
		{Name: "LoadgenZipf/p99", NsPerOp: 5, Runs: 1}, // new entry
		{Name: "LoadgenZipf/p50", NsPerOp: 3, Runs: 1}, // new entry, sorts before p99
	})
	want := []Result{
		{Name: "BenchmarkA", NsPerOp: 1},
		{Name: "BenchmarkB", NsPerOp: 20},
		{Name: "LoadgenZipf/p50", NsPerOp: 3, Runs: 1},
		{Name: "LoadgenZipf/p99", NsPerOp: 5, Runs: 1},
	}
	if !reflect.DeepEqual(merged.Benchmarks, want) {
		t.Errorf("merged = %+v, want %+v", merged.Benchmarks, want)
	}
}

func TestMergeEmptySides(t *testing.T) {
	if got := Merge(Report{}, nil); len(got.Benchmarks) != 0 {
		t.Errorf("empty merge = %+v", got.Benchmarks)
	}
	got := Merge(Report{}, []Result{{Name: "X", NsPerOp: 1}})
	if len(got.Benchmarks) != 1 || got.Benchmarks[0].Name != "X" {
		t.Errorf("merge into empty = %+v", got.Benchmarks)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	in := Report{
		GoOS: "linux", GoArch: "amd64", Pkg: "repro",
		Benchmarks: []Result{
			{Name: "BenchmarkA", Runs: 2, Iterations: 100, NsPerOp: 12.5, BytesPerOp: 8, AllocsPerOp: 1},
		},
	}
	if err := in.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: %+v -> %+v", in, out)
	}
}

func TestReadFileErrors(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file: want error")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("malformed file: want error")
	}
}

// ParseGoBench/Compare/StripProcsSuffix behavior is pinned in detail
// by cmd/bench's tests, which call these functions directly; the
// merge/IO layer is the part only this package owns.
