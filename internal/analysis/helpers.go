package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// isFloat reports whether t's underlying type is a floating-point
// basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// calleeOf resolves the object a call expression invokes, looking
// through parentheses. It returns nil for type conversions, builtins
// with no object, and calls of computed function values.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		if sel := info.Selections[f]; sel != nil {
			return sel.Obj()
		}
		return info.Uses[f.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := f.X.(*ast.Ident); ok {
			return info.Uses[id]
		}
	}
	return nil
}

// isPkgFunc reports whether obj is the package-level function pkgPath.name,
// where pkgPath matches either exactly or as an "…/suffix" (so the rule
// works for both the real module path and testdata fixture paths).
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	return pathMatches(obj.Pkg().Path(), pkgPath)
}

// pathMatches reports whether got is path itself or ends in "/"+path.
func pathMatches(got, path string) bool {
	return got == path || strings.HasSuffix(got, "/"+path)
}

// isConversion reports whether the call expression is a type
// conversion rather than a function call.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	return ok && tv.IsType()
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// lastResultIsError reports whether the call yields an error as its
// only or final result.
func lastResultIsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && types.Identical(t.At(t.Len()-1).Type(), errorType)
	default:
		return types.Identical(t, errorType)
	}
}
