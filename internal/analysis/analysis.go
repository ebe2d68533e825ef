// Package analysis is a small, dependency-free static-analysis
// framework for this repository. It loads and type-checks packages with
// the standard library's go/parser and go/types (no golang.org/x/tools;
// the module is built offline) and runs a suite of repo-specific
// analyzers that guard the invariants the paper reproduction depends
// on: bit-for-bit numerical determinism, seeded RNG discipline,
// deterministic output ordering, checked errors on output paths,
// concurrency hygiene in the parallel Monte-Carlo substrate, and no
// exported code that only tests use.
//
// Diagnostics are reported as "file:line:col: [rule] message". A
// finding can be suppressed by placing a
//
//	//lint:ignore <rule> <reason>
//
// comment on the offending line or on the line directly above it, or
// for a whole file (generated code, fixtures) with
//
//	//lint:file-ignore <rule> <reason>
//
// anywhere in the file. The reason is mandatory so suppressions stay
// auditable: an ignore without one suppresses nothing and is itself
// reported under the always-on lintignore meta-rule.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named rule. Run inspects the package held by the
// Pass and reports findings through Pass.Reportf.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and in
	// lint:ignore comments.
	Name string
	// Doc is a one-line description of what the rule enforces.
	Doc string
	// Run executes the rule against one type-checked package.
	Run func(*Pass)
}

// A Diagnostic is a single finding at a resolved source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Package is the loaded package, for queries that reach beyond the
	// type information (e.g. //repro:hotpath annotations of
	// dependencies).
	Package *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos under the running analyzer's rule
// name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmp,
		RNGDiscipline,
		MapOrder,
		ErrCheck,
		SyncCheck,
		HotAlloc,
		IfaceEscape,
		ValueRecv,
		UnusedExport,
	}
}

// Run executes every analyzer against the package and returns the
// surviving diagnostics sorted by position. Findings suppressed by
// lint:ignore / lint:file-ignore comments are dropped; malformed
// ignores (no rule or no reason) are reported under the lintignore
// meta-rule regardless of which analyzers run.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Package:  pkg,
			diags:    &diags,
		}
		a.Run(pass)
	}
	diags = filterIgnored(pkg, diags)
	seen := make(map[Diagnostic]bool, len(diags))
	uniq := diags[:0]
	for _, d := range diags {
		if !seen[d] {
			seen[d] = true
			uniq = append(uniq, d)
		}
	}
	diags = uniq
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}

// ignoreKey identifies one suppressed (file, line, rule) site.
type ignoreKey struct {
	file string
	line int
	rule string
}

// fileIgnoreKey identifies one file-wide suppressed rule.
type fileIgnoreKey struct {
	file string
	rule string
}

// LintIgnoreRule is the meta-rule under which malformed suppression
// comments are reported. It always runs: an unauditable ignore must
// never pass silently, whatever -rules subset was selected.
const LintIgnoreRule = "lintignore"

// ignoreSet is the parsed suppression state of one package, plus the
// diagnostics its malformed ignores earn.
type ignoreSet struct {
	line map[ignoreKey]bool
	file map[fileIgnoreKey]bool
	bad  []Diagnostic
}

// collectIgnores parses every "//lint:ignore <rule> <reason>" and
// "//lint:file-ignore <rule> <reason>" comment. An ignore with no rule
// or no reason suppresses nothing and is reported under lintignore.
func collectIgnores(pkg *Package) ignoreSet {
	set := ignoreSet{
		line: make(map[ignoreKey]bool),
		file: make(map[fileIgnoreKey]bool),
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Like //go: directives, the marker must follow "//" with
				// no space — "// lint:ignore ..." is prose about the
				// directive, not a directive.
				if !strings.HasPrefix(c.Text, "//lint:") {
					continue
				}
				text := strings.TrimPrefix(c.Text, "//")
				var directive string
				switch {
				case text == "lint:ignore" || strings.HasPrefix(text, "lint:ignore "):
					directive = "lint:ignore"
				case text == "lint:file-ignore" || strings.HasPrefix(text, "lint:file-ignore "):
					directive = "lint:file-ignore"
				default:
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, directive))
				if len(fields) < 2 {
					set.bad = append(set.bad, Diagnostic{
						Pos:  pos,
						Rule: LintIgnoreRule,
						Message: fmt.Sprintf("%s needs a rule and a reason (//%s <rule> <reason>); a bare ignore suppresses nothing",
							directive, directive),
					})
					continue
				}
				if directive == "lint:file-ignore" {
					set.file[fileIgnoreKey{pos.Filename, fields[0]}] = true
				} else {
					set.line[ignoreKey{pos.Filename, pos.Line, fields[0]}] = true
				}
			}
		}
	}
	return set
}

// filterIgnored drops diagnostics covered by a line ignore on the same
// line or the line immediately above, or by a file ignore anywhere in
// the diagnostic's file, and appends one finding per malformed ignore.
// The wildcard rule "*" suppresses every rule at that site.
func filterIgnored(pkg *Package, diags []Diagnostic) []Diagnostic {
	set := collectIgnores(pkg)
	kept := diags[:0]
	for _, d := range diags {
		if set.line[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Rule}] ||
			set.line[ignoreKey{d.Pos.Filename, d.Pos.Line - 1, d.Rule}] ||
			set.line[ignoreKey{d.Pos.Filename, d.Pos.Line, "*"}] ||
			set.line[ignoreKey{d.Pos.Filename, d.Pos.Line - 1, "*"}] ||
			set.file[fileIgnoreKey{d.Pos.Filename, d.Rule}] ||
			set.file[fileIgnoreKey{d.Pos.Filename, "*"}] {
			continue
		}
		kept = append(kept, d)
	}
	return append(kept, set.bad...)
}
