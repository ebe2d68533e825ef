package tablefmt

import (
	"math"
	"strings"
	"testing"
)

func TestRenderAligned(t *testing.T) {
	tb := New("Demo", "Name", "Value")
	tb.AddRow("alpha", "1.00")
	tb.AddRow("a-much-longer-name", "2.50")
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: "1.00" and "2.50" start at the same offset.
	i1 := strings.Index(lines[3], "1.00")
	i2 := strings.Index(lines[4], "2.50")
	if i1 != i2 || i1 < 0 {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestAddRowPadsAndTruncates(t *testing.T) {
	tb := New("", "A", "B")
	tb.AddRow("x")
	tb.AddRow("1", "2", "3")
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	out := tb.String()
	if strings.Contains(out, "3") {
		t.Error("overlong row not truncated")
	}
}

func TestNumNaN(t *testing.T) {
	if Num(math.NaN()) != "-" {
		t.Error("NaN should render as -")
	}
	if Num(2.5) != "2.50" {
		t.Errorf("Num(2.5) = %q", Num(2.5))
	}
}

func TestWriteCSV(t *testing.T) {
	tb := New("ignored", "x", "y")
	tb.AddRow("1", "2")
	tb.AddRow("3", "4")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "x,y\n1,2\n3,4\n"
	if b.String() != want {
		t.Errorf("csv = %q, want %q", b.String(), want)
	}
}

func TestPlotBasics(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{0, 1, 4, 9, 16}
	out := Plot("parabola", xs, ys, 40, 10)
	if !strings.Contains(out, "parabola") || !strings.Contains(out, "*") {
		t.Errorf("plot missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 13 { // title + 10 rows + axis + labels
		t.Errorf("%d lines:\n%s", len(lines), out)
	}
	// Axis labels present.
	if !strings.Contains(out, "16") || !strings.Contains(out, "0") {
		t.Errorf("missing y labels:\n%s", out)
	}
}

func TestPlotNaNGaps(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, math.NaN(), math.NaN(), 2}
	out := Plot("", xs, ys, 20, 5)
	if strings.Count(out, "*") != 2 {
		t.Errorf("want 2 points, got:\n%s", out)
	}
}

func TestPlotDegenerate(t *testing.T) {
	if Plot("", nil, nil, 20, 5) != "" {
		t.Error("empty input should render nothing")
	}
	if Plot("", []float64{1}, []float64{math.NaN()}, 20, 5) != "" {
		t.Error("all-NaN input should render nothing")
	}
	// Constant series must not divide by zero.
	out := Plot("", []float64{1, 2}, []float64{3, 3}, 20, 5)
	if !strings.Contains(out, "*") {
		t.Error("constant series lost its points")
	}
}
