package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// A Package is one directory of Go source, parsed and type-checked.
type Package struct {
	// Path is the import path (or the directory path for packages
	// outside the module, e.g. testdata fixtures).
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// hotTypes names the //repro:hotpath-annotated types declared in
	// this package; loader points back at the Loader that produced the
	// package so annotations of memoized dependencies are queryable.
	hotTypes map[string]bool
	loader   *Loader
}

// IsHotpathType reports whether tn names a //repro:hotpath-annotated
// type — declared in this package or in any dependency the loader has
// already type-checked (dependencies are always loaded before their
// importers, so the memo is complete by the time analyzers run).
func (p *Package) IsHotpathType(tn *types.TypeName) bool {
	if tn == nil || tn.Pkg() == nil {
		return false
	}
	if tn.Pkg() == p.Types {
		return p.hotTypes[tn.Name()]
	}
	if p.loader != nil {
		if dep, ok := p.loader.pkgs[tn.Pkg().Path()]; ok {
			return dep.hotTypes[tn.Name()]
		}
	}
	return false
}

// A Loader parses and type-checks packages rooted at one module. It
// resolves intra-module import paths itself and delegates everything
// else (the standard library) to the stdlib source importer, so it
// works fully offline. Loaded packages are memoized, so shared
// dependencies are checked once.
type Loader struct {
	// ModulePath is the module identifier from go.mod ("" when the
	// loader was rooted outside any module).
	ModulePath string
	// ModuleDir is the directory holding go.mod.
	ModuleDir string
	// IncludeTests adds in-package _test.go files to each loaded
	// package. External test packages (package foo_test) are never
	// loaded.
	IncludeTests bool

	Fset *token.FileSet

	std  types.ImporterFrom
	pkgs map[string]*Package
	busy map[string]bool
	refs *moduleRefs // built on first use by unusedexport
}

var moduleLineRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// NewLoader returns a loader rooted at the module containing dir. If no
// go.mod is found above dir, the loader still works but resolves only
// standard-library imports.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset: token.NewFileSet(),
		pkgs: make(map[string]*Package),
		busy: make(map[string]bool),
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			m := moduleLineRE.FindSubmatch(data)
			if m == nil {
				return nil, fmt.Errorf("%s/go.mod: no module line", d)
			}
			l.ModulePath = string(m[1])
			l.ModuleDir = d
			break
		}
		parent := filepath.Dir(d)
		if parent == d {
			break // no module; stdlib-only resolution
		}
		d = parent
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// loaded from the module tree, everything else from GOROOT source.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if l.ModulePath != "" && (path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")) {
		sub := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.Load(filepath.Join(l.ModuleDir, filepath.FromSlash(sub)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, 0)
}

// pathFor maps an absolute directory to its import path inside the
// module, falling back to the directory itself.
func (l *Loader) pathFor(dir string) string {
	if l.ModulePath == "" {
		return dir
	}
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return dir
	}
	if rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// Load parses and type-checks the package in dir (memoized).
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := l.pathFor(abs)
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	bp, err := build.ImportDir(abs, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	if l.IncludeTests {
		names = append(names, bp.TestGoFiles...)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no Go files", abs)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErrs []error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, typeErrs[0])
	}
	pkg := &Package{
		Path:     path,
		Dir:      abs,
		Fset:     l.Fset,
		Files:    files,
		Types:    tpkg,
		Info:     info,
		hotTypes: hotpathTypeNames(files),
		loader:   l,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Dirs expands command-line package patterns into source directories.
// A pattern ending in "/..." (or the bare "...") is walked recursively;
// anything else names a single directory. Walks skip testdata, vendor,
// hidden, and underscore-prefixed directories.
func Dirs(patterns []string) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	for _, pat := range patterns {
		root, recursive := pat, false
		if pat == "..." {
			root, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			root, recursive = strings.TrimSuffix(pat, "/..."), true
			if root == "" {
				root = "/"
			}
		}
		if !recursive {
			add(filepath.Clean(root))
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			ents, err := os.ReadDir(p)
			if err != nil {
				return err
			}
			for _, e := range ents {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
					add(filepath.Clean(p))
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
