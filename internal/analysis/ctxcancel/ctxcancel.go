// Package ctxcancel implements the desclint pass that keeps long-running
// exported entry points cancellable.
//
// The experiment pipeline threads context cancellation CLI → exp.Runner →
// cpusim: cpusim's scheduler loop polls ctx.Done() every 64 quanta, and
// everything above it inherits cancellability from that. The cache
// hierarchy below it never sees the context: no call into it outlives a
// quantum. The pattern is load-bearing — a sweep that cannot be cancelled
// wedges the worker pool — but until now nothing enforced it on new code.
// This pass requires that every exported function (or method) taking a
// context.Context whose body contains an unbounded for loop consults the
// context: an unbounded loop is `for { ... }` or a condition-only
// `for cond { ... }`, and consulting means the loop body mentions any
// context.Context value (polling it or passing it on) or calls a
// same-package function that (transitively) polls one — the
// "function polls ctx" fact from internal/analysis/facts.
//
// Bounded three-clause loops and range loops are exempt: their iteration
// count is fixed by data already in hand. Loops inside function literals
// are checked too — a goroutine spun from an exported entry point needs
// cancellation at least as much as the entry point itself.
package ctxcancel

import (
	"go/ast"
	"go/types"

	"desc/internal/analysis"
	"desc/internal/analysis/facts"
	"desc/internal/analysis/inspect"
)

// Analyzer is the ctxcancel pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxcancel",
	Doc: "exported functions taking a context.Context with unbounded for " +
		"loops must poll the context (or call something that does)",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	in := inspect.Of(pass)
	fs := facts.Of(pass)
	in.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		fn := fs.FuncOf(decl)
		if fn == nil || decl.Body == nil || !decl.Name.IsExported() {
			return
		}
		if !takesContext(fn) {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || !unbounded(loop) {
				return true
			}
			if loopConsultsContext(pass, fs, loop) {
				return true
			}
			pass.Reportf(loop.Pos(),
				"unbounded loop in exported %s never consults its context; poll ctx.Done()/ctx.Err() (cheaply, e.g. every N iterations) or delegate to a function that does",
				fn.Name())
			return true
		})
	})
	return nil, nil
}

// takesContext reports whether fn has a context.Context parameter.
func takesContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if facts.IsContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// unbounded reports whether loop has no data-bounded iteration count:
// `for {}` and condition-only `for cond {}` qualify; three-clause loops
// and (elsewhere) range loops do not.
func unbounded(loop *ast.ForStmt) bool {
	if loop.Cond == nil {
		return true
	}
	return loop.Init == nil && loop.Post == nil
}

// loopConsultsContext reports whether the loop body mentions any
// context.Context value or calls a same-package function carrying the
// polls-ctx fact.
func loopConsultsContext(pass *analysis.Pass, fs *facts.Funcs, loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if facts.IsContextType(pass.TypeOf(n)) {
				found = true
			}
		case *ast.CallExpr:
			if fn, ok := analysis.CalleeObject(pass.TypesInfo, n).(*types.Func); ok &&
				fs.Decl(fn) != nil && fs.PollsCtx(fn) {
				found = true
			}
		}
		return true
	})
	return found
}
