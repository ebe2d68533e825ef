package analysis

import (
	"go/ast"
	"go/types"
)

// SyncCheck flags "go func() { … }" literals that capture a loop
// variable instead of taking it as an argument. Per-iteration loop
// variables make this safe from Go 1.22, but the explicit-argument form
// is the house style because it also pins one RNG stream per worker of
// the parallel Monte-Carlo engine. Lock copies are go vet's copylocks
// pass, which scripts/check.sh runs before this suite.
var SyncCheck = &Analyzer{
	Name: "synccheck",
	Doc:  "flags loop-variable capture in go statements",
	Run:  runSyncCheck,
}

func runSyncCheck(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.RangeStmt:
				checkGoLoopCapture(p, loopVarObjs(p, e), e.Body)
			case *ast.ForStmt:
				checkGoLoopCapture(p, forInitObjs(p, e), e.Body)
			}
			return true
		})
	}
}

// loopVarObjs returns the objects bound by a range statement's key and
// value.
func loopVarObjs(p *Pass, rs *ast.RangeStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// forInitObjs returns the objects defined in a for statement's init
// clause (for i := 0; …).
func forInitObjs(p *Pass, fs *ast.ForStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if as, ok := fs.Init.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := p.Info.Defs[id]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	return out
}

// checkGoLoopCapture flags "go func() { … uses i … }()" inside the
// loop that declares i, when i is not passed as a call argument.
func checkGoLoopCapture(p *Pass, loopVars map[types.Object]bool, body *ast.BlockStmt) {
	if len(loopVars) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := p.Info.Uses[id]; obj != nil && loopVars[obj] {
				p.Reportf(id.Pos(),
					"goroutine captures loop variable %s; pass it as an argument (go func(%s …) { … }(%s))", id.Name, id.Name, id.Name)
				return false
			}
			return true
		})
		return true
	})
}
