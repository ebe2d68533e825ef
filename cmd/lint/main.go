// Command lint runs the repository's static-analysis suite
// (internal/analysis) over package patterns and reports diagnostics as
// "file:line:col: [rule] message", or as one JSON object per line with
// -json. It exits 0 when clean, 1 when diagnostics were reported, and
// 2 when packages failed to load or type-check.
//
// Usage:
//
//	go run ./cmd/lint ./...
//	go run ./cmd/lint -json ./internal/dist ./cmd/reserve
//
// Findings are suppressed with a "//lint:ignore <rule> <reason>"
// comment on the offending line or the line above, or file-wide with
// "//lint:file-ignore <rule> <reason>". Either form without a reason
// suppresses nothing and is itself reported. -tests adds in-package
// _test.go files to the run. -rules restricts the suite to a
// comma-separated subset. unusedexport judges against references from
// the whole module whatever the patterns, so linting one package gives
// it the verdicts ./... gives it.
//
// -escapes switches to the compiler escape-analysis gate: it builds
// the matched packages with -gcflags=-m, collects every heap-escape
// diagnostic inside a //repro:hotpath function, and diffs the set
// against the committed baseline (-baseline, default ESCAPES.json at
// the module root). New escapes fail the gate with exit 1; -write
// regenerates the baseline instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is the -json wire form of one diagnostic.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit one JSON diagnostic object per line")
	withTests := fs.Bool("tests", false, "also analyze in-package _test.go files")
	ruleList := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	listRules := fs.Bool("list", false, "list available rules and exit")
	escapes := fs.Bool("escapes", false, "run the compiler escape-analysis gate over //repro:hotpath functions")
	baseline := fs.String("baseline", "", "escape baseline file (default: ESCAPES.json at the module root)")
	write := fs.Bool("write", false, "with -escapes: rewrite the baseline from a fresh scan instead of diffing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite := analysis.All()
	if *listRules {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *ruleList != "" {
		keep := make(map[string]bool)
		for _, r := range strings.Split(*ruleList, ",") {
			keep[strings.TrimSpace(r)] = true
		}
		var sub []*analysis.Analyzer
		for _, a := range suite {
			if keep[a.Name] {
				sub = append(sub, a)
				delete(keep, a.Name)
			}
		}
		if len(keep) > 0 {
			unknown := make([]string, 0, len(keep))
			for r := range keep {
				unknown = append(unknown, r)
			}
			sort.Strings(unknown)
			fmt.Fprintf(stderr, "lint: unknown rules: %s\n", strings.Join(unknown, ", "))
			return 2
		}
		suite = sub
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := analysis.Dirs(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "lint: %v\n", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintln(stderr, "lint: no packages matched")
		return 2
	}
	loader, err := analysis.NewLoader(dirs[0])
	if err != nil {
		fmt.Fprintf(stderr, "lint: %v\n", err)
		return 2
	}
	if *escapes {
		return runEscapes(loader, dirs, *baseline, *write, stdout, stderr)
	}
	loader.IncludeTests = *withTests
	enc := json.NewEncoder(stdout)
	total, failed := 0, false
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintf(stderr, "lint: %v\n", err)
			failed = true
			continue
		}
		for _, d := range analysis.Run(pkg, suite) {
			total++
			if *jsonOut {
				if err := enc.Encode(jsonDiag{
					File:    d.Pos.Filename,
					Line:    d.Pos.Line,
					Col:     d.Pos.Column,
					Rule:    d.Rule,
					Message: d.Message,
				}); err != nil {
					fmt.Fprintf(stderr, "lint: %v\n", err)
					return 2
				}
			} else {
				fmt.Fprintln(stdout, d.String())
			}
		}
	}
	switch {
	case failed:
		return 2
	case total > 0:
		return 1
	}
	return 0
}

// runEscapes implements the -escapes mode: scan, then either rewrite
// the baseline (-write) or diff against it. Both new escapes and stale
// baseline entries fail the gate — a stale entry is a free pass for
// the next regression with the same message.
func runEscapes(loader *analysis.Loader, dirs []string, baselinePath string, write bool, stdout, stderr io.Writer) int {
	if loader.ModuleDir == "" {
		fmt.Fprintln(stderr, "lint: -escapes requires a module root (no go.mod found)")
		return 2
	}
	if baselinePath == "" {
		baselinePath = filepath.Join(loader.ModuleDir, "ESCAPES.json")
	}
	recs, err := analysis.EscapeScan(loader.ModuleDir, dirs)
	if err != nil {
		fmt.Fprintf(stderr, "lint: %v\n", err)
		return 2
	}
	if write {
		if err := analysis.WriteEscapeBaseline(baselinePath, recs); err != nil {
			fmt.Fprintf(stderr, "lint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "lint: wrote %d escape record(s) to %s\n", len(recs), baselinePath)
		return 0
	}
	base, err := analysis.ReadEscapeBaseline(baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "lint: %v\n", err)
		return 2
	}
	unexpected, stale := analysis.DiffEscapes(recs, base)
	for _, r := range unexpected {
		fmt.Fprintf(stdout, "escape not in baseline: %s\n", r)
	}
	for _, r := range stale {
		fmt.Fprintf(stdout, "stale baseline entry (escape no longer reported): %s\n", r)
	}
	if len(unexpected)+len(stale) > 0 {
		fmt.Fprintf(stderr, "lint: escape gate failed (%d new, %d stale); if the new escapes are deliberate cold paths, regenerate with -escapes -write and commit %s\n",
			len(unexpected), len(stale), filepath.Base(baselinePath))
		return 1
	}
	fmt.Fprintf(stdout, "lint: escape gate clean (%d baselined escape(s) in hot-path functions)\n", len(recs))
	return 0
}
