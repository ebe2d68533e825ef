package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestAnalyzerGolden runs every analyzer against its fixture package
// under testdata/src/<rule>/ and checks the produced diagnostics
// against the fixtures' "// want `regexp`" comments (or "/* want
// `regexp` */", for a line whose line comment is itself under test):
// every want must be matched by exactly one diagnostic on its line, and
// every diagnostic must be claimed by a want. Unannotated fixture lines
// double as false-positive guards — any stray finding fails the test.
// Fixture _test.go files are loaded, so a fixture can pin what test
// code does and does not count for.
func TestAnalyzerGolden(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			runGolden(t, a)
		})
	}
}

// expectation is one parsed want comment.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("^(?://|/\\*) want [`\"](.+)[`\"](?: \\*/)?$")

func runGolden(t *testing.T, a *Analyzer) {
	dir := filepath.Join("testdata", "src", a.Name)
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	loader.IncludeTests = true
	pkg, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments; the golden test would pass vacuously", dir)
	}
	for _, d := range Run(pkg, []*Analyzer{a}) {
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic (false positive or duplicate):\n  %s", d)
		}
		if d.Rule != a.Name && d.Rule != LintIgnoreRule {
			t.Errorf("diagnostic carries rule %q, want %q", d.Rule, a.Name)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missed diagnostic (rule regressed): %s:%d: want match for %q",
				filepath.Base(w.file), w.line, w.re)
		}
	}
}

// TestIgnoreRequiresReason pins the escape hatch's audit rule: a
// lint:ignore comment without a reason suppresses nothing.
func TestIgnoreRequiresReason(t *testing.T) {
	dir := filepath.Join("testdata", "src", "floatcmp")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{{
		Pos:  pkg.Fset.Position(pkg.Files[0].Package),
		Rule: "floatcmp",
	}}
	if got := filterIgnored(pkg, diags); len(got) != 1 {
		t.Fatalf("diagnostic with no matching ignore was dropped: %d remain", len(got))
	}
}

// TestDirsSkipsTestdata checks pattern expansion: recursive walks must
// skip testdata and hidden directories so fixtures never gate the repo.
func TestDirsSkipsTestdata(t *testing.T) {
	dirs, err := Dirs([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no directories found")
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Dirs returned fixture directory %s", d)
		}
	}
}

// TestLoaderResolvesModuleImports checks the loader against a package
// that imports both the standard library and module-internal packages.
func TestLoaderResolvesModuleImports(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if loader.ModulePath != "repro" {
		t.Fatalf("module path = %q, want repro", loader.ModulePath)
	}
	pkg, err := loader.Load(filepath.Join("..", "simulate"))
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types == nil || pkg.Info == nil {
		t.Fatal("package loaded without type information")
	}
	// The memoized dependency graph must contain internal/rng, pulled
	// in transitively, resolvable by import path.
	dep, err := loader.Import("repro/internal/rng")
	if err != nil {
		t.Fatal(err)
	}
	if dep.Name() != "rng" {
		t.Fatalf("imported package name = %q, want rng", dep.Name())
	}
}

// TestDiagnosticString pins the file:line:col output contract that
// editors and CI grep for.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "floatcmp", Message: "msg"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "x.go:3:7: [floatcmp] msg"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
