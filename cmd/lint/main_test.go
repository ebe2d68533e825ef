package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

const fixtureDir = "../../internal/analysis/testdata/src/floatcmp"

func TestRunTextOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{fixtureDir}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (fixture has known findings); stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "[floatcmp]") {
		t.Fatalf("text output missing [floatcmp] tag:\n%s", out.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if parts := strings.SplitN(line, ":", 4); len(parts) != 4 {
			t.Errorf("line not in file:line:col: message form: %q", line)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", fixtureDir}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errb.String())
	}
	sc := bufio.NewScanner(&out)
	n := 0
	for sc.Scan() {
		n++
		var d struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		}
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("line %d is not a JSON diagnostic: %v\n%s", n, err, sc.Text())
		}
		if d.File == "" || d.Line == 0 || d.Rule != "floatcmp" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
	if n == 0 {
		t.Fatal("JSON mode produced no diagnostics for a fixture with known findings")
	}
}

func TestRunCleanPackage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"../../internal/rng"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0 for a clean package; output:\n%s%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean package produced output:\n%s", out.String())
	}
}

func TestRunRuleSubset(t *testing.T) {
	var out, errb bytes.Buffer
	// The floatcmp fixture is clean under every other rule.
	if code := run([]string{"-rules", "maporder,synccheck", fixtureDir}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; output:\n%s%s", code, out.String(), errb.String())
	}
}

// TestRunUnusedExportRule: -rules knows unusedexport, and the rule
// leaves a testdata fixture alone — the module walk never reaches it,
// so there is no reference set to judge its exports against.
func TestRunUnusedExportRule(t *testing.T) {
	if code, out, errb := lintRun(t, "-rules", "unusedexport", fixtureDir); code != 0 {
		t.Fatalf("exit code = %d, want 0; output:\n%s%s", code, out, errb)
	}
}

// TestUnusedExportVerdictsIndependentOfPatterns: the unusedexport
// reference set is always the whole module, so linting one package,
// with or without -tests, gives it the verdicts ./... gives it — not a
// report of every export that only other packages use.
func TestUnusedExportVerdictsIndependentOfPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module three times; skipped in -short")
	}
	verdicts := func(args ...string) string {
		t.Helper()
		code, out, errb := lintRun(t, append([]string{"-rules", "unusedexport"}, args...)...)
		if code == 2 {
			t.Fatalf("lint %v: load error:\n%s", args, errb)
		}
		var lines []string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "/internal/dist/") {
				lines = append(lines, line)
			}
		}
		return strings.Join(lines, "\n")
	}
	want := verdicts("../../...")
	for _, args := range [][]string{{"../../internal/dist"}, {"-tests", "../../internal/dist"}} {
		if got := verdicts(args...); got != want {
			t.Errorf("lint %v verdicts for internal/dist differ from ./...:\n got: %s\nwant: %s", args, got, want)
		}
	}
}

func TestRunUnknownRule(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-rules", "nosuchrule", fixtureDir}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2 for unknown rule", code)
	}
	if !strings.Contains(errb.String(), "nosuchrule") {
		t.Fatalf("stderr does not name the unknown rule: %s", errb.String())
	}
}

func TestRunListRules(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, rule := range []string{"floatcmp", "rngdiscipline", "maporder", "errcheck-lite", "synccheck",
		"hotalloc", "ifaceescape", "valuerecv", "unusedexport"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list output missing rule %s:\n%s", rule, out.String())
		}
	}
}

// lintRun executes run() capturing both streams.
func lintRun(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRunLoadError pins exit code 2 for packages that fail to
// type-check, including when mixed with packages that merely have
// findings: load errors dominate.
func TestRunLoadError(t *testing.T) {
	code, _, errb := lintRun(t, "testdata/broken")
	if code != 2 {
		t.Errorf("broken package: exit %d, want 2", code)
	}
	if !strings.Contains(errb, "undefinedSymbol") {
		t.Errorf("stderr does not name the type error:\n%s", errb)
	}
	if code, _, _ := lintRun(t, "testdata/dirty", "testdata/broken"); code != 2 {
		t.Errorf("dirty+broken: exit %d, want 2", code)
	}
	if code, out, _ := lintRun(t, "testdata/dirty"); code != 1 || !strings.Contains(out, "[floatcmp]") {
		t.Errorf("dirty alone: exit %d, want 1 with a floatcmp finding:\n%s", code, out)
	}
	if code, _, _ := lintRun(t, "testdata/clean"); code != 0 {
		t.Errorf("clean package: exit %d, want 0", code)
	}
}

// TestEscapeGateDetectsInjectedEscape runs the -escapes gate end to end
// against a standalone fixture module carrying one known heap escape in
// a //repro:hotpath function: no baseline fails with exit 1 naming the
// function, -write baselines it, the rerun is clean, and a stale
// baseline entry fails again.
func TestEscapeGateDetectsInjectedEscape(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "ESCAPES.json")

	code, out, _ := lintRun(t, "-escapes", "-baseline", baseline, "testdata/escapemod")
	if code != 1 {
		t.Fatalf("no baseline: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "Leak") || !strings.Contains(out, "moved to heap: x") {
		t.Errorf("gate output does not attribute the escape to Leak:\n%s", out)
	}
	if strings.Contains(out, "Stay") || strings.Contains(out, "Unannotated") {
		t.Errorf("gate attributed escapes to the wrong functions:\n%s", out)
	}

	if code, out, _ := lintRun(t, "-escapes", "-baseline", baseline, "-write", "testdata/escapemod"); code != 0 {
		t.Fatalf("-write: exit %d, want 0\n%s", code, out)
	}
	if code, out, _ := lintRun(t, "-escapes", "-baseline", baseline, "testdata/escapemod"); code != 0 {
		t.Fatalf("baselined rerun: exit %d, want 0\n%s", code, out)
	}

	// Inject a stale record: an entry the compiler no longer reports
	// must fail the gate, or the baseline could mask a regression with
	// the same message later.
	recs, err := analysis.ReadEscapeBaseline(baseline)
	if err != nil {
		t.Fatal(err)
	}
	recs = append(recs, analysis.EscapeRecord{Pkg: ".", Func: "Stay", Text: "moved to heap: x"})
	if err := analysis.WriteEscapeBaseline(baseline, recs); err != nil {
		t.Fatal(err)
	}
	code, out, _ = lintRun(t, "-escapes", "-baseline", baseline, "testdata/escapemod")
	if code != 1 {
		t.Fatalf("stale baseline: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "stale baseline entry") {
		t.Errorf("stale entry not reported:\n%s", out)
	}
}

// TestVetCopyLocksFixture pins go vet's copylocks pass, the lock-copy
// step of scripts/check.sh, against a standalone fixture module: every
// "// want `regexp`" line must draw exactly one matching report, and
// no other line may draw one.
func TestVetCopyLocksFixture(t *testing.T) {
	dir := filepath.Join("testdata", "copylocksmod")
	src, err := os.ReadFile(filepath.Join(dir, "locks.go"))
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[int]*regexp.Regexp)
	for i, line := range strings.Split(string(src), "\n") {
		if m := vetWantRE.FindStringSubmatch(line); m != nil {
			wants[i+1] = regexp.MustCompile(m[1])
		}
	}
	if len(wants) == 0 {
		t.Fatal("fixture has no want comments; the test would pass vacuously")
	}

	cmd := exec.Command("go", "vet", "-copylocks", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if _, ok := err.(*exec.ExitError); err != nil && !ok {
		t.Fatalf("go vet did not run: %v", err)
	}
	reported := make(map[int]bool)
	for _, line := range strings.Split(string(out), "\n") {
		m := vetDiagRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		re, ok := wants[n]
		switch {
		case !ok:
			t.Errorf("unexpected report: %s", line)
		case reported[n]:
			t.Errorf("second report on want line %d: %s", n, line)
		case !re.MatchString(m[2]):
			t.Errorf("report on line %d does not match `%s`: %s", n, re, line)
		}
		reported[n] = true
	}
	for n, re := range wants {
		if !reported[n] {
			t.Errorf("locks.go:%d: no report matching `%s`", n, re)
		}
	}
	if t.Failed() {
		t.Logf("go vet output:\n%s", out)
	}
}

var (
	vetWantRE = regexp.MustCompile("// want `(.+)`$")
	vetDiagRE = regexp.MustCompile(`^\./locks\.go:(\d+):\d+: (.*)$`)
)

// TestEscapesBaselineFresh fails when the committed ESCAPES.json no
// longer matches a fresh scan of the repository: the baseline must
// always be reproducible by -escapes -write, so it can never mask a
// new escape.
func TestEscapesBaselineFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the module; skipped in -short")
	}
	if code, out, errb := lintRun(t, "-escapes", "../../..."); code != 0 {
		t.Errorf("escape gate not clean against committed ESCAPES.json (exit %d); regenerate with: go run ./cmd/lint -escapes -write\n%s%s",
			code, out, errb)
	}
	// The committed file must also be byte-stable under a rewrite
	// (sorted records, fixed header), so -write never produces diff
	// noise.
	path := filepath.Join("..", "..", "ESCAPES.json")
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := analysis.ReadEscapeBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := filepath.Join(t.TempDir(), "ESCAPES.json")
	if err := analysis.WriteEscapeBaseline(rewritten, recs); err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != string(fresh) {
		t.Errorf("committed ESCAPES.json is not byte-stable under rewrite")
	}
}
