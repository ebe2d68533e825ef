package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// UnusedExport flags exported API that only tests use. It reports every
// exported function, method, type, variable or constant declared in a
// non-main package that no non-test file in the module refers to. The
// reference set is always the whole module (every package the ./...
// walk from the module root reaches, cmd/ and examples/ included),
// whatever subset of packages is being linted or whether -tests is set;
// a reference from a _test.go file never counts, and neither does a
// declaration's reference to itself (recursion, or a type named in its
// own methods). A method also counts as used when its type satisfies an
// interface that non-test code names, or one of the standard interfaces
// that the standard library reaches by a dynamic type check (error,
// fmt's String/GoString/Format, sort's Len/Less/Swap, errors' Unwrap/Is/
// As, MarshalJSON/UnmarshalJSON and MarshalText/UnmarshalText). Struct
// fields are out of scope: encoding/json reaches them by reflection.
//
// A reference implementation that only tests call belongs in the
// declaring package's _test.go files; one that tests in several
// packages share as an oracle stays under
// "//lint:ignore unusedexport <reason>" naming that role.
var UnusedExport = &Analyzer{
	Name: "unusedexport",
	Doc:  "flags exported declarations that no non-test file in the module references",
	Run:  runUnusedExport,
}

// isPublicAPI is the rule that exempts a package from unusedexport: a
// package outside every internal/ directory can be imported by other
// modules, so its exported names are used where no reference set can
// see. In this module that is exactly repro, repro/client and
// repro/service/api.
func isPublicAPI(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if elem == "internal" {
			return false
		}
	}
	return true
}

func runUnusedExport(p *Pass) {
	if p.Pkg.Name() == "main" || isPublicAPI(p.Pkg.Path()) {
		return
	}
	refs := p.Package.loader.moduleRefs()
	if refs.err != nil {
		p.Reportf(p.Files[0].Package, "cannot build the module-wide reference set: %v", refs.err)
		return
	}
	if !refs.pkgs[p.Package.Path] {
		return // outside the module walk (a testdata fixture): nothing to judge against
	}
	report := func(id *ast.Ident, kind, name string) {
		if id.IsExported() && !refs.used[p.Info.Defs[id]] {
			p.Reportf(id.Pos(), "%s %s has no non-test use in the module; delete it, move it into a _test.go file, or keep it with //lint:ignore unusedexport <reason>",
				kind, name)
		}
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if base := receiverBaseName(d); base != "" {
					report(d.Name, "method", base+"."+d.Name.Name)
				} else {
					report(d.Name, "func", d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						report(s.Name, "type", s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							report(id, d.Tok.String(), id.Name)
						}
					}
				}
			}
		}
	}
}

// moduleRefs is the reference set unusedexport judges against.
type moduleRefs struct {
	// pkgs holds the import paths of the packages the module walk
	// reached; only those are judged.
	pkgs map[string]bool
	// used holds every object (generic instances mapped to their
	// origin) that a non-test file refers to, plus every method that
	// satisfies an interface in use.
	used map[types.Object]bool
	err  error
}

// moduleRefs loads every package of the module through l (memoized, so
// a ./... run pays nothing extra) and builds the reference set once.
func (l *Loader) moduleRefs() *moduleRefs {
	if l.refs != nil {
		return l.refs
	}
	refs := &moduleRefs{pkgs: make(map[string]bool), used: make(map[types.Object]bool)}
	l.refs = refs
	if l.ModuleDir == "" {
		return refs
	}
	dirs, err := Dirs([]string{filepath.Join(l.ModuleDir, "...")})
	if err != nil {
		refs.err = err
		return refs
	}
	ifaces, err := stdInterfaces(l)
	if err != nil {
		refs.err = err
		return refs
	}
	var named []*types.TypeName
	for _, dir := range dirs {
		pkg, err := l.Load(dir)
		if err != nil {
			refs.err = err
			return refs
		}
		refs.pkgs[pkg.Path] = true
		for _, f := range pkg.Files {
			if isTestFile(pkg.Fset, f) {
				continue
			}
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						refs.collect(pkg, spec, declOwners(pkg, spec), ifaces)
					}
				} else {
					refs.collect(pkg, decl, declOwners(pkg, decl), ifaces)
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() &&
				!strings.HasSuffix(pkg.Fset.Position(tn.Pos()).Filename, "_test.go") {
				named = append(named, tn)
			}
		}
	}
	for _, tn := range named {
		refs.markSatisfying(tn, ifaces)
	}
	return refs
}

// collect records every use inside node, except uses of the objects
// the node itself declares, and every method-bearing interface type
// the node's expressions name or pass to.
func (r *moduleRefs) collect(pkg *Package, node ast.Node, owners map[types.Object]bool, ifaces map[types.Type]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := originOf(pkg.Info.Uses[id]); obj != nil && !owners[obj] {
				r.used[obj] = true
			}
		}
		if tv, ok := pkg.Info.Types[e]; ok && tv.Type != nil {
			addInterfaces(ifaces, tv.Type)
		}
		return true
	})
}

// markSatisfying marks the methods through which tn (or *tn)
// satisfies an interface in ifaces. A generic type is matched by method
// name alone: go/types leaves Implements unspecified for it.
func (r *moduleRefs) markSatisfying(tn *types.TypeName, ifaces map[types.Type]bool) {
	t := tn.Type()
	if types.IsInterface(t) {
		return
	}
	ptr := types.NewPointer(t)
	mset := types.NewMethodSet(ptr)
	if mset.Len() == 0 {
		return
	}
	generic := false
	if n, ok := t.(*types.Named); ok {
		generic = n.TypeParams().Len() > 0
	}
	for it := range ifaces {
		iface := it.Underlying().(*types.Interface)
		if !generic && !types.Implements(ptr, iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
				r.used[originOf(sel.Obj())] = true
			}
		}
	}
}

// declOwners returns the objects a top-level declaration (or one spec
// of a grouped declaration) declares; a method is owned by its
// receiver's type as well, so a type named only in its own methods is
// unused.
func declOwners(pkg *Package, node ast.Node) map[types.Object]bool {
	owners := make(map[types.Object]bool)
	switch d := node.(type) {
	case *ast.FuncDecl:
		owners[pkg.Info.Defs[d.Name]] = true
		if base := receiverBaseName(d); base != "" {
			owners[pkg.Types.Scope().Lookup(base)] = true
		}
	case *ast.TypeSpec:
		owners[pkg.Info.Defs[d.Name]] = true
	case *ast.ValueSpec:
		for _, id := range d.Names {
			owners[pkg.Info.Defs[id]] = true
		}
	}
	return owners
}

// addInterfaces adds t to set when it is a method-bearing interface.
// A function type contributes its parameter and result types, so
// passing a value to sort.Sort or http.Handle puts the parameter's
// interface in use; a type parameter contributes its constraint.
func addInterfaces(set map[types.Type]bool, t types.Type) {
	switch t := t.(type) {
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				addInterfaces(set, tup.At(i).Type())
			}
		}
		return
	case *types.TypeParam:
		addInterfaces(set, t.Constraint())
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		set[t] = true
	}
}

// stdInterfaceSrc declares the standard interfaces the standard
// library reaches by a dynamic type check, without any signature naming
// them: fmt's Stringer, GoStringer and Formatter, sort.Interface, the
// methods errors.Is, errors.As and errors.Unwrap look for, and the
// encoding/json and encoding text (un)marshalers.
const stdInterfaceSrc = `package std

import (
	"encoding"
	"encoding/json"
	"fmt"
	"sort"
)

type (
	stringer        fmt.Stringer
	goStringer      fmt.GoStringer
	formatter       fmt.Formatter
	sorter          sort.Interface
	unwrapper       interface{ Unwrap() error }
	multiUnwrapper  interface{ Unwrap() []error }
	iser            interface{ Is(error) bool }
	aser            interface{ As(any) bool }
	jsonMarshaler   json.Marshaler
	jsonUnmarshaler json.Unmarshaler
	textMarshaler   encoding.TextMarshaler
	textUnmarshaler encoding.TextUnmarshaler
)
`

// stdInterfaces returns a fresh interface set seeded with error and
// the interfaces of stdInterfaceSrc, type-checked against imp.
func stdInterfaces(imp types.Importer) (map[types.Type]bool, error) {
	set := map[types.Type]bool{errorType: true}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "std.go", stdInterfaceSrc, 0)
	if err != nil {
		panic(err) // a constant source: only a bug can get here
	}
	pkg, err := (&types.Config{Importer: imp}).Check("std", fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	for _, name := range pkg.Scope().Names() {
		set[pkg.Scope().Lookup(name).Type()] = true
	}
	return set, nil
}

// originOf maps a method or field of a generic instance to the
// declared object; other objects map to themselves.
func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// isTestFile reports whether f was parsed from a _test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go")
}
