// Package fusepath protects the event-fusion fast path's single-site
// invariant (DESIGN.md §10): the L1 hit completion event (evL1Done) is
// scheduled from exactly one place — L1.finishHit — which both the slow hit
// path and the fused fast path (FinishFastHit) funnel through. The fusion
// equivalence argument leans on this: Core.fuseOps applies a hit's effects
// inline via TryFastHit and only re-checks the event queue against that one
// known completion event. A second evL1Done scheduling site would complete
// hits on a path fusion cannot see, silently breaking the bit-for-bit
// on/off equivalence the golden and differential tests pin.
//
// Two things sit beside the rule without breaking it. Engine.PeekNext sees
// engine ticks as well as events, so a pending lock-spin tick bounds a
// fused run like any event. And the lock spin completes a guaranteed hit
// (L1.SpinHit) outside finishHit: the core schedules a check tick that
// occupies the slot evL1Done would have taken, so no second evL1Done site
// exists and fusion, which never runs the spin re-read, is unaffected
// (DESIGN.md §10, "Allocation-free lock spin").
//
// The analyzer flags any call in the coherence package that passes the
// evL1Done event kind to a scheduler outside finishHit. A deliberate new
// scheduling site must be waived with //lockiller:fusepath-ok plus a
// justification — and had better come with an update to the equivalence
// reasoning in DESIGN.md §10.
package fusepath

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer is the fusepath pass.
var Analyzer = &analysis.Analyzer{
	Name: "fusepath",
	Doc:  "flags evL1Done scheduling outside L1.finishHit; the fusion fast path assumes a single completion site",
	Run:  run,
}

// fusePkgs are the packages holding the fused hit path. Matching is by
// package name so analysistest fixtures opt in by naming their package
// "coherence".
var fusePkgs = map[string]bool{"coherence": true}

// sanctioned is the one function allowed to schedule evL1Done.
const sanctioned = "finishHit"

func run(pass *analysis.Pass) error {
	if !fusePkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			uses := false
			for _, a := range call.Args {
				if id, ok := ast.Unparen(a).(*ast.Ident); ok && id.Name == "evL1Done" {
					uses = true
					break
				}
			}
			if !uses || enclosingFuncName(pass, call) == sanctioned {
				return true
			}
			if pass.Waived(call, analysis.DirectiveFusePathOK) {
				return true
			}
			pass.Reportf(call.Pos(),
				"evL1Done scheduled outside %s: the event-fusion fast path assumes a single L1 hit completion site; route through %s or waive with //%s and update DESIGN.md §10",
				sanctioned, sanctioned, analysis.DirectiveFusePathOK)
			return true
		})
	}
	return nil
}

// enclosingFuncName returns the name of the innermost function declaration
// containing n ("" for function literals and top-level code).
func enclosingFuncName(pass *analysis.Pass, n ast.Node) string {
	for cur := pass.ParentOf(n); cur != nil; cur = pass.ParentOf(cur) {
		switch fn := cur.(type) {
		case *ast.FuncDecl:
			return fn.Name.Name
		case *ast.FuncLit:
			return ""
		}
	}
	return ""
}
