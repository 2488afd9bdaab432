// Package evtalloc flags closure scheduling on the simulator's hot path: a
// func literal passed to sim.Engine.At or sim.Engine.After allocates one
// closure (and usually a capture cell) per event. The typed zero-alloc API
// — AtEvent/AfterEvent dispatch to a Handler with two unboxed payload words
// — cut the full-sim allocation rate 11x when the hot-path call sites moved
// to it, so new closure literals in hot packages are regressions.
//
// A func held in a local variable or parameter, or a method value, is
// flagged too: the pass cannot see where the closure was built, and a loop
// can rebuild it on every iteration behind such a variable (a lock spin
// once did exactly that). The sanctioned alternative to the typed
// API is a closure prebound in a struct field (built once at setup, reused
// per event); package-level funcs allocate nothing either. Cold paths that
// genuinely need an ad-hoc closure are waived with //lockiller:alloc-ok
// plus a justification.
package evtalloc

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the evtalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "evtalloc",
	Doc:  "flags closure-literal and func-variable Engine.At/After scheduling in hot packages; steer to AtEvent/AfterEvent",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsHotPkg(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if name != "At" && name != "After" {
				return true
			}
			if !isEngine(pass, sel.X) || len(call.Args) != 2 {
				return true
			}
			what := scheduledFunc(pass, call.Args[1])
			if what == "" || pass.Waived(call, analysis.DirectiveAllocOK) {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s passed to Engine.%s in hot package %q allocates per event; use Engine.%sEvent (typed zero-alloc API) or a closure prebound in a struct field, or waive a cold path with //%s",
				what, name, pass.Pkg.Name(), name, analysis.DirectiveAllocOK)
			return true
		})
	}
	return nil
}

// scheduledFunc classifies the func argument of an At/After call: "" when
// it is allocation-free by construction (a struct field holding a prebound
// closure, a package-level func or var), otherwise a description of the
// flagged form.
func scheduledFunc(pass *analysis.Pass, arg ast.Expr) string {
	switch e := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return "closure literal"
	case *ast.SelectorExpr:
		if sel := pass.TypesInfo.Selections[e]; sel != nil && sel.Kind() == types.MethodVal {
			return "method value"
		}
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() != v.Pkg().Scope() {
			return "func variable"
		}
	}
	return ""
}

// isEngine reports whether e's type is (a pointer to) a named type called
// Engine — sim.Engine in the real tree, a local stand-in in fixtures.
func isEngine(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Engine"
}
