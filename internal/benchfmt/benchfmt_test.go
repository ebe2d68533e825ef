package benchfmt

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

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
