package main

import (
	"math"
	"strings"
	"testing"

	"repro"
)

func TestParseTracePlainLines(t *testing.T) {
	in := "100.5\n200\n\n300.25\n"
	got, err := ParseTrace(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{100.5, 200, 300.25}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestParseTraceCSVColumn(t *testing.T) {
	in := "job,duration,nodes\nj1,120.5,4\nj2,98,2\nj3,101,8\n"
	got, err := ParseTrace(strings.NewReader(in), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 120.5 || got[2] != 101 {
		t.Errorf("got %v", got)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []struct {
		in  string
		col int
	}{
		{"", 1},                     // empty
		{"abc\ndef\n", 1},           // non-numeric data row
		{"1,2\n3\n", 3},             // missing column
		{"100\n-5\n", 1},            // negative duration
		{"100\n0\n", 1},             // zero duration
		{"100\n", 1},                // single value
		{"duration\n100\n200\n", 0}, // bad column index
		{"1\nnan\n", 1},             // NaN string parses to NaN; must be rejected
	}
	for i, c := range cases {
		if _, err := ParseTrace(strings.NewReader(c.in), c.col); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestParseTraceHeaderSkipped(t *testing.T) {
	in := "duration_seconds\n10\n20\n30\n"
	got, err := ParseTrace(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("got %v", got)
	}
}

func TestLoadTraceDemo(t *testing.T) {
	samples, err := loadTrace("", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5000 {
		t.Errorf("demo trace has %d samples", len(samples))
	}
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	if math.Abs(mean-1253) > 60 {
		t.Errorf("demo trace mean %g, want ≈1253 s", mean)
	}
	if _, err := loadTrace("", 1, false); err == nil {
		t.Error("missing -trace accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	samples, err := loadTrace("", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	m := repro.CostModel{Alpha: 0.95, Beta: 1, Gamma: 1.05}
	if err := run(&buf, samples, "equal-probability", m, 4, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"lognormal", "expected cost", "verdict", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := run(&buf, samples, "equal-probability", m, 4, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"strategy\"") {
		t.Errorf("JSON output missing fields:\n%s", buf.String())
	}
}
