package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
)

// ObsAlloc enforces the zero-alloc-when-disabled observability contract at
// instrumentation call-sites. A trace emission like
//
//	v.Emit(now, "phi", "oom_kill", obs.F("job", id))
//
// builds its variadic []Field slice (and boxes the field values) BEFORE the
// call, so even though Observer.Emit is nil-safe, an unguarded call-site pays
// the allocation on every run — including uninstrumented production sweeps
// where the observer is nil. The contract is that disabled instrumentation
// costs one pointer-nil branch and nothing else, which holds only when the
// emission is wrapped in its receiver's nil guard:
//
//	if v != nil {
//		v.Emit(now, "phi", "oom_kill", obs.F("job", id))
//	}
//
// The rule flags, in sim-path packages:
//
//   - Emit calls carrying field arguments (more than the fixed time/layer/
//     kind triple) whose receiver is not nil-checked by an enclosing if —
//     the variadic slice would allocate on the disabled path;
//   - fmt.Sprint/Sprintf/Sprintln anywhere in an unguarded Emit call's
//     arguments — string formatting allocates regardless of arity.
//
// Guard detection is textual, matching the suite's no-type-checker design:
// an enclosing `if x != nil { ... }` (including `&&` conjunctions) guards
// every Emit whose receiver prints as x. Disjunctions (`||`) guarantee
// nothing and do not count. Nil-safe metric handles (Counter.Inc,
// Histogram.Observe) are method calls on non-variadic receivers and stay
// unflagged: they allocate nothing when disabled.
var ObsAlloc = &Analyzer{
	Name: "obsalloc",
	Doc: "instrumentation call-sites must not allocate when observability is " +
		"disabled; wrap field-carrying Emit calls in their receiver's nil guard",
	AppliesTo: SimPath,
	Run:       runObsAlloc,
}

// emitFixedArgs is the arity of an Emit call with no fields: (at, layer,
// kind). Anything beyond it materializes a variadic []Field.
const emitFixedArgs = 3

func runObsAlloc(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		fmtName := "fmt"
		for _, imp := range file.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "fmt" && imp.Name != nil {
				fmtName = imp.Name.Name
			}
		}

		// Pass 1: collect the body ranges guarded by a receiver nil-check.
		type guardRange struct {
			recv     string
			from, to token.Pos
		}
		var guards []guardRange
		ast.Inspect(file, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			for _, recv := range nilCheckedExprs(ifs.Cond) {
				guards = append(guards, guardRange{recv, ifs.Body.Pos(), ifs.Body.End()})
			}
			return true
		})
		guarded := func(recv string, pos token.Pos) bool {
			for _, g := range guards {
				if g.recv == recv && g.from <= pos && pos < g.to {
					return true
				}
			}
			return false
		}

		// Pass 2: check the Emit call-sites.
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Emit" {
				return true
			}
			recv := exprText(sel.X)
			if recv == "" || guarded(recv, call.Pos()) {
				return true
			}
			if len(call.Args) > emitFixedArgs {
				pass.Reportf("obsalloc", call.Pos(),
					"%s.Emit builds its field slice even when observability is off; wrap the call in `if %s != nil`",
					recv, recv)
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					c, ok := a.(*ast.CallExpr)
					if !ok {
						return true
					}
					if s, ok := c.Fun.(*ast.SelectorExpr); ok {
						if id, ok := s.X.(*ast.Ident); ok && id.Name == fmtName &&
							(s.Sel.Name == "Sprintf" || s.Sel.Name == "Sprint" || s.Sel.Name == "Sprintln") {
							pass.Reportf("obsalloc", c.Pos(),
								"%s.%s allocates inside an unguarded %s.Emit; format under `if %s != nil` only",
								fmtName, s.Sel.Name, recv, recv)
						}
					}
					return true
				})
			}
			return true
		})
	}
}

// nilCheckedExprs extracts the expressions an if-condition proves non-nil:
// `x != nil` and `nil != x` terms reachable through `&&` conjunctions.
// `||` branches prove nothing (either side may be skipped) and parenthesized
// conditions unwrap transparently.
func nilCheckedExprs(cond ast.Expr) []string {
	switch v := cond.(type) {
	case *ast.ParenExpr:
		return nilCheckedExprs(v.X)
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LAND:
			return append(nilCheckedExprs(v.X), nilCheckedExprs(v.Y)...)
		case token.NEQ:
			if isNilIdent(v.Y) {
				if t := exprText(v.X); t != "" {
					return []string{t}
				}
			}
			if isNilIdent(v.X) {
				if t := exprText(v.Y); t != "" {
					return []string{t}
				}
			}
		}
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// exprText renders an identifier or selector chain ("v", "p.obs",
// "m.host.obs") for textual guard matching; anything else (a call result,
// an index expression) yields "" and is never considered guarded or
// guardable.
func exprText(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if x := exprText(v.X); x != "" {
			return x + "." + v.Sel.Name
		}
	}
	return ""
}
