package analysis

import (
	"go/ast"
	"go/types"
)

// IfaceEscape guards the cursor/workload value types that the scoring
// loops keep on the stack: converting a value of a //repro:hotpath
// type (core.CostCursor, core.RecurrenceCursor, simulate.Workload, …)
// to an interface copies the whole value to the heap at every
// conversion site. It flags such by-value conversions anywhere in the
// analyzed package — call arguments, assignments, declarations,
// returns, and composite-literal elements — across package boundaries
// (the annotation is read from the dependency's source).
//
// Boxing a *pointer* to a hot-path type is deliberately allowed: the
// pointer rides in the interface word, so handing &cursor to a scorer
// costs one escape per worker block, which is the sanctioned pattern
// (see strategy.BruteForce.Search).
var IfaceEscape = &Analyzer{
	Name: "ifaceescape",
	Doc:  "flags by-value conversions of //repro:hotpath types to interfaces, which force a heap copy per conversion",
	Run:  runIfaceEscape,
}

func runIfaceEscape(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				checkIfaceEscapeCall(p, e)
			case *ast.AssignStmt:
				if len(e.Lhs) == len(e.Rhs) {
					for i, rhs := range e.Rhs {
						if lt := lhsType(p, e.Lhs[i]); lt != nil && types.IsInterface(lt.Underlying()) {
							reportIfaceEscape(p, rhs, lt)
						}
					}
				}
			case *ast.ValueSpec:
				if e.Type != nil {
					ttv, ok := p.Info.Types[e.Type]
					if ok && ttv.Type != nil && types.IsInterface(ttv.Type.Underlying()) {
						for _, v := range e.Values {
							reportIfaceEscape(p, v, ttv.Type)
						}
					}
				}
			case *ast.CompositeLit:
				checkIfaceEscapeLit(p, e)
			case *ast.FuncDecl:
				if e.Body != nil {
					checkIfaceEscapeReturns(p, e.Type, e.Body)
				}
			case *ast.FuncLit:
				checkIfaceEscapeReturns(p, e.Type, e.Body)
			}
			return true
		})
	}
}

// lhsType resolves the static type of an assignment target, falling
// back to the identifier's object when the expression carries no type
// entry (LHS identifiers of := are definitions, not typed expressions).
func lhsType(p *Pass, e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// hotValueType reports whether e's static type is (after aliases) a
// named //repro:hotpath type held by value.
func hotValueType(p *Pass, e ast.Expr) (types.Type, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return nil, false
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	if !ok {
		return nil, false
	}
	if !p.Package.IsHotpathType(named.Obj()) {
		return nil, false
	}
	return tv.Type, true
}

func reportIfaceEscape(p *Pass, e ast.Expr, target types.Type) {
	if at, ok := hotValueType(p, e); ok {
		p.Reportf(e.Pos(), "converting hot-path type %s to %s boxes the value on the heap at every conversion; box a pointer (&x) once per block instead", at, target)
	}
}

// checkIfaceEscapeCall flags arguments (and single-argument interface
// conversions) that box a hot-path value.
func checkIfaceEscapeCall(p *Pass, call *ast.CallExpr) {
	if isConversion(p.Info, call) {
		tv := p.Info.Types[ast.Unparen(call.Fun)]
		if tv.Type != nil && types.IsInterface(tv.Type.Underlying()) && len(call.Args) == 1 {
			reportIfaceEscape(p, call.Args[0], tv.Type)
		}
		return
	}
	ftv, ok := p.Info.Types[call.Fun]
	if !ok || ftv.Type == nil {
		return
	}
	sig, ok := ftv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			last := sig.Params().At(np - 1).Type()
			if call.Ellipsis.IsValid() {
				pt = last
			} else if sl, ok := last.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if pt != nil && types.IsInterface(pt.Underlying()) {
			reportIfaceEscape(p, arg, pt)
		}
	}
}

// checkIfaceEscapeLit flags hot-path values stored into interface-typed
// slice/array/map elements and struct fields of a composite literal.
func checkIfaceEscapeLit(p *Pass, cl *ast.CompositeLit) {
	tv, ok := p.Info.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	var elemFor func(elt ast.Expr, i int) (types.Type, ast.Expr)
	switch u := tv.Type.Underlying().(type) {
	case *types.Slice:
		elemFor = func(elt ast.Expr, _ int) (types.Type, ast.Expr) { return u.Elem(), valueOfElt(elt) }
	case *types.Array:
		elemFor = func(elt ast.Expr, _ int) (types.Type, ast.Expr) { return u.Elem(), valueOfElt(elt) }
	case *types.Map:
		elemFor = func(elt ast.Expr, _ int) (types.Type, ast.Expr) { return u.Elem(), valueOfElt(elt) }
	case *types.Struct:
		elemFor = func(elt ast.Expr, i int) (types.Type, ast.Expr) {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					for j := 0; j < u.NumFields(); j++ {
						if u.Field(j).Name() == id.Name {
							return u.Field(j).Type(), kv.Value
						}
					}
				}
				return nil, nil
			}
			if i < u.NumFields() {
				return u.Field(i).Type(), elt
			}
			return nil, nil
		}
	default:
		return
	}
	for i, elt := range cl.Elts {
		ft, v := elemFor(elt, i)
		if ft != nil && v != nil && types.IsInterface(ft.Underlying()) {
			reportIfaceEscape(p, v, ft)
		}
	}
}

// valueOfElt unwraps a key:value element to its value.
func valueOfElt(elt ast.Expr) ast.Expr {
	if kv, ok := elt.(*ast.KeyValueExpr); ok {
		return kv.Value
	}
	return elt
}

// checkIfaceEscapeReturns flags returns of hot-path values through
// interface-typed results, stopping at nested func literals (each is
// scanned against its own signature).
func checkIfaceEscapeReturns(p *Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	if ft.Results == nil {
		return
	}
	var results []types.Type
	for _, field := range ft.Results.List {
		tv, ok := p.Info.Types[field.Type]
		if !ok || tv.Type == nil {
			return
		}
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			results = append(results, tv.Type)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if len(s.Results) != len(results) {
				return true // bare return or multi-value call
			}
			for i, r := range s.Results {
				if types.IsInterface(results[i].Underlying()) {
					reportIfaceEscape(p, r, results[i])
				}
			}
		}
		return true
	})
}
